// Copyright 2026 The SPLASH Reproduction Authors.
//
// Contracts of the streaming executor:
//   - the schedule builders partition edges and queries exactly like the
//     historical interleaved loop (every edge observed once, every query
//     flushed once, flush points ordered);
//   - the executor's one loop (ObserveBulk, then StageBatch and the
//     staged call) is bit-identical to a reference loop over the same
//     schedule with per-edge ObserveEdge and fused TrainBatch /
//     PredictBatch (same model weights, probed through predictions, and
//     same metrics);
//   - FeatureAugmenter::ObserveBulk is bit-identical to per-edge
//     ObserveEdge replay, unseen->unseen folds included.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baselines/standins.h"
#include "core/feature_augmentation.h"
#include "core/splash.h"
#include "datasets/synthetic.h"
#include "eval/metrics.h"
#include "eval/stream_executor.h"
#include "eval/trainer.h"

namespace splash {
namespace {

class StreamExecutorTest : public ::testing::Test {};

Dataset MakeDataset(size_t num_edges = 4000, double query_rate = 0.3) {
  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 200;
  cfg.num_edges = num_edges;
  cfg.num_communities = 3;
  cfg.intra_prob = 0.9;
  cfg.query_rate = query_rate;
  cfg.late_arrival_frac = 0.25;
  cfg.seed = 13;
  return GenerateSynthetic(cfg);
}

SplashOptions SmallSplashOptions() {
  SplashOptions opts;
  opts.mode = SplashMode::kAuto;
  opts.augment.feature_dim = 16;
  opts.slim.hidden_dim = 32;
  opts.slim.time_dim = 8;
  opts.slim.k_recent = 5;
  opts.slim.dropout = 0.0f;
  opts.seed = 7;
  return opts;
}

void CheckSchedule(const std::vector<ReplayOp>& ops, size_t edge_end,
                   size_t expected_queries) {
  size_t edge_cursor = 0;
  size_t queries_flushed = 0;
  size_t prev_query_end = 0;
  bool seen_train_range = false;
  for (const ReplayOp& op : ops) {
    // Edge ranges tile [0, edge_end) in order with no gaps or overlaps.
    EXPECT_EQ(op.edge_begin, edge_cursor);
    EXPECT_LE(op.edge_begin, op.edge_end);
    edge_cursor = op.edge_end;
    if (op.flush == ReplayOp::Flush::kNone) continue;
    EXPECT_LT(op.query_begin, op.query_end);
    queries_flushed += op.query_end - op.query_begin;
    // Train flushes cover an earlier contiguous region than val flushes,
    // except the partial train batch which flushes after the tail.
    if (op.query_begin < prev_query_end) seen_train_range = true;
    prev_query_end = op.query_end;
  }
  (void)seen_train_range;
  EXPECT_EQ(edge_cursor, edge_end);
  EXPECT_EQ(queries_flushed, expected_queries);
}

TEST_F(StreamExecutorTest, FitScheduleTilesEdgesAndFlushesEachQueryOnce) {
  const Dataset ds = MakeDataset();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.15);
  const double* t = ds.stream.time_data();
  size_t replay_end = 0;
  while (replay_end < ds.stream.size() &&
         t[replay_end] <= split.val_end_time) {
    ++replay_end;
  }
  size_t fit_queries = 0;
  for (const PropertyQuery& q : ds.queries) {
    if (q.time <= split.val_end_time) ++fit_queries;
  }
  ASSERT_GT(fit_queries, 0u);

  std::vector<ReplayOp> ops;
  for (const size_t batch : {32u, 200u, 100000u}) {
    BuildFitSchedule(ds, split, batch, &ops);
    CheckSchedule(ops, replay_end, fit_queries);
  }
}

TEST_F(StreamExecutorTest, EvalScheduleTilesEdgesAndFlushesTestQueriesOnce) {
  const Dataset ds = MakeDataset();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.15);
  size_t test_queries = 0;
  for (const PropertyQuery& q : ds.queries) {
    if (q.time > split.val_end_time) ++test_queries;
  }
  ASSERT_GT(test_queries, 0u);

  std::vector<ReplayOp> ops;
  for (const size_t batch : {32u, 200u, 100000u}) {
    BuildEvalSchedule(ds, split, batch, &ops);
    CheckSchedule(ops, ds.stream.size(), test_queries);
  }
}

/// Fit + Evaluate outcome of one predictor. The final scores probe its
/// learned weights: identical predictions on a fixed batch from identical
/// streaming state imply identical weights for this input set.
struct RunOutcome {
  double val_metric = 0.0;
  double test_metric = 0.0;
  Matrix final_scores;
};

constexpr size_t kEpochs = 2;
constexpr size_t kBatchSize = 64;

Matrix ProbeScores(TemporalPredictor* model, const Dataset& ds, size_t n) {
  const std::vector<PropertyQuery> probe(ds.queries.end() - n,
                                         ds.queries.end());
  return model->PredictBatch(probe);
}

/// Fit and Evaluate through StreamTrainer, i.e. the executor.
RunOutcome RunTrainer(TemporalPredictor* model, const Dataset& ds,
                      const ChronoSplit& split, size_t probe_rows) {
  TrainerOptions topts;
  topts.epochs = kEpochs;
  topts.batch_size = kBatchSize;
  topts.early_stopping = false;
  StreamTrainer trainer(topts);

  RunOutcome out;
  out.val_metric = trainer.Fit(model, ds, split).best_val_metric;
  out.test_metric = trainer.Evaluate(model, ds, split).metric;
  out.final_scores = ProbeScores(model, ds, probe_rows);
  return out;
}

/// The reference loop: `ops` run with per-edge ObserveEdge and the fused
/// TrainBatch / PredictBatch, each kPredict flush scored in eval mode.
/// Returns the task metric over the kPredict flushes.
double ReferenceRun(TemporalPredictor* model, const Dataset& ds,
                    const std::vector<ReplayOp>& ops, bool training) {
  Matrix scores;
  std::vector<int> labels;
  size_t rows = 0;
  for (const ReplayOp& op : ops) {
    for (size_t i = op.edge_begin; i < op.edge_end; ++i) {
      model->ObserveEdge(ds.stream[i], i);
    }
    if (op.flush == ReplayOp::Flush::kNone) continue;
    const std::vector<PropertyQuery> batch(
        ds.queries.begin() + op.query_begin,
        ds.queries.begin() + op.query_end);
    if (op.flush == ReplayOp::Flush::kTrain) {
      model->TrainBatch(batch);
      continue;
    }
    if (training) model->SetTraining(false);
    const Matrix out = model->PredictBatch(batch);
    if (training) model->SetTraining(true);
    scores.Resize(rows + out.rows(), out.cols());
    std::memcpy(scores.Row(rows), out.data(), out.size() * sizeof(float));
    rows += out.rows();
    for (const PropertyQuery& q : batch) labels.push_back(q.class_label);
  }
  return rows > 0 ? TaskMetric(ds.task, scores, labels) : 0.0;
}

/// Fit and Evaluate as StreamTrainer does them (no early stopping), with
/// ReferenceRun in place of the executor.
RunOutcome RunReference(TemporalPredictor* model, const Dataset& ds,
                        const ChronoSplit& split, size_t probe_rows) {
  std::vector<ReplayOp> ops;
  BuildFitSchedule(ds, split, kBatchSize, &ops);
  RunOutcome out;
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    model->SetTraining(true);
    model->ResetState();
    const double val = ReferenceRun(model, ds, ops, /*training=*/true);
    if (epoch == 0 || val > out.val_metric) out.val_metric = val;
  }
  model->SetTraining(false);
  model->ResetState();
  BuildEvalSchedule(ds, split, kBatchSize, &ops);
  out.test_metric = ReferenceRun(model, ds, ops, /*training=*/false);
  out.final_scores = ProbeScores(model, ds, probe_rows);
  return out;
}

void ExpectBitIdentical(const RunOutcome& ref, const RunOutcome& run,
                        const char* what) {
  EXPECT_EQ(ref.val_metric, run.val_metric) << what;    // bit-identical
  EXPECT_EQ(ref.test_metric, run.test_metric) << what;  // bit-identical
  ASSERT_EQ(ref.final_scores.size(), run.final_scores.size()) << what;
  for (size_t i = 0; i < ref.final_scores.size(); ++i) {
    ASSERT_EQ(ref.final_scores.data()[i], run.final_scores.data()[i])
        << what << " score element " << i;
  }
}

TEST_F(StreamExecutorTest, RunBitIdenticalToPerEdgeFusedReference) {
  const Dataset ds = MakeDataset();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.15);

  SplashPredictor ref_model(SmallSplashOptions());
  SplashPredictor run_model(SmallSplashOptions());
  ASSERT_TRUE(ref_model.Prepare(ds, split).ok());
  ASSERT_TRUE(run_model.Prepare(ds, split).ok());
  EXPECT_EQ(ref_model.selected_process(), run_model.selected_process());

  const RunOutcome ref = RunReference(&ref_model, ds, split, 50);
  const RunOutcome run = RunTrainer(&run_model, ds, split, 50);
  ExpectBitIdentical(ref, run, "SPLASH");
}

TEST_F(StreamExecutorTest, BaselineStandinsRunBitIdenticalToReference) {
  // TGN+RF is the hardest case (per-edge node-memory mutation in
  // ObserveEdge); SLADE covers the training-free staging.
  const Dataset ds = MakeDataset();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.15);

  {
    TgnnStandinOptions bopts;
    bopts.family = TgnnFamily::kTgn;
    bopts.random_features = true;
    bopts.feature_dim = 16;
    bopts.hidden_dim = 24;
    bopts.time_dim = 8;
    bopts.k_recent = 5;
    bopts.seed = 77;
    TgnnStandin ref_model(bopts), run_model(bopts);
    ASSERT_TRUE(ref_model.Prepare(ds, split).ok());
    ASSERT_TRUE(run_model.Prepare(ds, split).ok());
    ExpectBitIdentical(RunReference(&ref_model, ds, split, 40),
                       RunTrainer(&run_model, ds, split, 40), "TGN+RF");
  }
  {
    SladeStandinOptions bopts;
    bopts.k_recent = 5;
    SladeStandin ref_model(bopts), run_model(bopts);
    ASSERT_TRUE(ref_model.Prepare(ds, split).ok());
    ASSERT_TRUE(run_model.Prepare(ds, split).ok());
    ExpectBitIdentical(RunReference(&ref_model, ds, split, 40),
                       RunTrainer(&run_model, ds, split, 40), "SLADE");
  }
}

TEST_F(StreamExecutorTest, BulkReplayBitIdenticalToPerEdgeReplay) {
  // A mix of seen-seen, seen-unseen and unseen-unseen edges: an unseen
  // endpoint whose source is also unseen folds in that source's running
  // estimate as of this edge, so ObserveBulk must read it in stream order
  // to match the per-edge replay bit for bit. The range is thousands of
  // edges, so a bulk replay that split it across workers and deferred
  // those folds to batch end would fail here.
  const size_t n_seen = 64, n_unseen = 512;
  EdgeStream stream;
  double t = 0.0;
  for (size_t i = 0; i < 128; ++i) {
    stream
        .Append(TemporalEdge(static_cast<NodeId>(i % n_seen),
                             static_cast<NodeId>((i * 5) % n_seen), t += 1.0))
        .ok();
  }
  const double fit_time = t;
  Rng rng(3);
  size_t unseen_pairs = 0;
  for (size_t i = 0; i < 4096; ++i) {
    const NodeId u = static_cast<NodeId>(
        rng.Uniform() < 0.6 ? n_seen + rng.UniformInt(n_unseen)
                            : rng.UniformInt(n_seen));
    const NodeId v = static_cast<NodeId>(
        rng.Uniform() < 0.6 ? n_seen + rng.UniformInt(n_unseen)
                            : rng.UniformInt(n_seen));
    unseen_pairs += u >= n_seen && v >= n_seen;
    stream.Append(TemporalEdge(u, v, t += 1.0)).ok();
  }
  ASSERT_GT(unseen_pairs, 1000u);

  FeatureAugmenterOptions opts;
  opts.feature_dim = 16;
  FeatureAugmenter serial(opts), bulk(opts);
  serial.FitSeen(stream, fit_time);
  bulk.FitSeen(stream, fit_time);

  for (size_t i = 0; i < stream.size(); ++i) serial.ObserveEdge(stream[i]);
  bulk.ObserveBulk(stream, 0, stream.size());

  std::vector<float> a(16), b(16);
  for (NodeId v = 0; v < n_seen + n_unseen; ++v) {
    ASSERT_EQ(serial.degrees().Degree(v), bulk.degrees().Degree(v));
    for (const AugmentationProcess p :
         {AugmentationProcess::kRandom, AugmentationProcess::kPositional,
          AugmentationProcess::kStructural}) {
      serial.WriteFeature(p, v, a.data());
      bulk.WriteFeature(p, v, b.data());
      for (size_t j = 0; j < 16; ++j) {
        ASSERT_EQ(a[j], b[j]) << "node " << v << " process "
                              << ProcessName(p) << " dim " << j;
      }
    }
  }
  EXPECT_EQ(serial.degrees().num_edges(), bulk.degrees().num_edges());
}

}  // namespace
}  // namespace splash
