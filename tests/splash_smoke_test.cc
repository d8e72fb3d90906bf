// Copyright 2026 The SPLASH Reproduction Authors.
//
// End-to-end smoke: SPLASH trains on a small synthetic classification
// stream and beats chance; determinism across identically-seeded runs; the
// ring-buffer substrate and trainer replay hold up under a full pipeline;
// copying a trained model (CopyModelFrom, the copy constructor) gives the
// bytes training would; every mode's checkpoint restores bit-exactly; a
// cold read served from the memo is the read computed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "core/splash.h"
#include "datasets/shift_intensity.h"
#include "datasets/synthetic.h"
#include "eval/trainer.h"
#include "tensor/simd.h"
#include "tests/serve_test_util.h"

namespace splash {
namespace {

SplashOptions SmallOptions(SplashMode mode) {
  SplashOptions opts;
  opts.mode = mode;
  opts.augment.feature_dim = 16;
  opts.slim.hidden_dim = 32;
  opts.slim.time_dim = 8;
  opts.slim.k_recent = 5;
  opts.seed = 7;
  return opts;
}

Dataset SmallClassification() {
  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 150;
  cfg.num_edges = 3000;
  cfg.num_communities = 3;
  cfg.intra_prob = 0.9;
  cfg.query_rate = 0.3;
  cfg.late_arrival_frac = 0.2;
  cfg.seed = 9;
  return GenerateSynthetic(cfg);
}

TEST(SplashSmokeTest, LearnsCommunitiesAboveChance) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashPredictor model(SmallOptions(SplashMode::kForcePositional));
  ASSERT_TRUE(model.Prepare(ds, split).ok());

  TrainerOptions topts;
  topts.epochs = 6;
  topts.batch_size = 64;
  StreamTrainer trainer(topts);
  trainer.Fit(&model, ds, split);
  const EvalResult eval = trainer.Evaluate(&model, ds, split);
  ASSERT_GT(eval.num_queries, 20u);
  // 3 balanced-ish classes: chance is ~0.33. Positional features on a 90%
  // intra-community stream must do clearly better.
  EXPECT_GT(eval.metric, 0.45);
}

TEST(SplashSmokeTest, DeterministicAcrossRuns) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  double metrics[2];
  for (int run = 0; run < 2; ++run) {
    SplashPredictor model(SmallOptions(SplashMode::kForceStructural));
    ASSERT_TRUE(model.Prepare(ds, split).ok());
    TrainerOptions topts;
    topts.epochs = 2;
    topts.batch_size = 64;
    StreamTrainer trainer(topts);
    trainer.Fit(&model, ds, split);
    metrics[run] = trainer.Evaluate(&model, ds, split).metric;
  }
  EXPECT_DOUBLE_EQ(metrics[0], metrics[1]);
}

TEST(SplashSmokeTest, AutoModeSelectsAProcessAndRuns) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashPredictor model(SmallOptions(SplashMode::kAuto));
  ASSERT_TRUE(model.Prepare(ds, split).ok());
  const AugmentationProcess p = model.selected_process();
  EXPECT_TRUE(p == AugmentationProcess::kRandom ||
              p == AugmentationProcess::kPositional ||
              p == AugmentationProcess::kStructural);
  TrainerOptions topts;
  topts.epochs = 1;
  topts.batch_size = 64;
  StreamTrainer trainer(topts);
  const FitResult fit = trainer.Fit(&model, ds, split);
  EXPECT_EQ(fit.epochs_run, 1u);
  EXPECT_GE(fit.best_val_metric, 0.0);
}

std::vector<uint8_t> StateBytes(const SplashPredictor& p) {
  ByteWriter w;
  p.SerializeState(&w);
  return w.buffer();
}

// Labeled queries at the time of the last observed edge: enough rows for
// more than one parallel train chunk.
std::vector<PropertyQuery> TrainQueries(const Dataset& ds, size_t observed,
                                        size_t step) {
  std::vector<PropertyQuery> qs(80);
  for (size_t i = 0; i < qs.size(); ++i) {
    qs[i].node = static_cast<NodeId>((i * 7 + step) % ds.stream.num_nodes());
    qs[i].time = ds.stream[observed - 1].time;
    qs[i].class_label = static_cast<int>((i + step) % 3);
  }
  return qs;
}

// The catch-up copy's oracle: a twin that observes the same edges and
// copies the model after each train step holds the trainer's exact state
// bytes — weights, Adam moments, step counters and the dropout Rng.
// Both predictors own a train state here, so the copy takes the moments
// too; the read-only replica case follows.
TEST(SplashSmokeTest, CopyModelFromMatchesTrainingBytes) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashOptions opts = SmallOptions(SplashMode::kForceStructural);
  opts.slim.dropout = 0.2f;
  SplashPredictor trainer(opts), twin(opts);
  ASSERT_TRUE(trainer.Prepare(ds, split).ok());
  ASSERT_TRUE(twin.Prepare(ds, split).ok());
  trainer.SetTraining(true);

  constexpr size_t kSteps = 6;
  const size_t per_step = ds.stream.size() / kSteps;
  for (size_t step = 0; step < kSteps; ++step) {
    const size_t lo = step * per_step, hi = lo + per_step;
    trainer.ObserveBulk(ds.stream, lo, hi);
    twin.ObserveBulk(ds.stream, lo, hi);
    trainer.TrainBatch(TrainQueries(ds, hi, step));
    ASSERT_TRUE(twin.CopyModelFrom(trainer).ok());
    ASSERT_EQ(StateBytes(twin), StateBytes(trainer)) << "step " << step;
  }

  // A source of another architecture is refused before any write.
  SplashOptions wide = opts;
  wide.slim.hidden_dim = 48;
  SplashPredictor other(wide);
  ASSERT_TRUE(other.Prepare(ds, split).ok());
  const std::vector<uint8_t> before = StateBytes(twin);
  EXPECT_FALSE(twin.CopyModelFrom(other).ok());
  EXPECT_EQ(StateBytes(twin), before);
}

// A one-row read (PredictBatchConst of a single query) takes the one-row
// kernels, which skip zero inputs, and stops the neighbor rows after the
// last valid slot. Its scores must still be that query's row of one
// batched call, bit for bit, for a node with no history and nodes with
// 1, k/2 and k valid slots, on every kernel backend.
void CheckOneRowReadsMatchBatchedRows(size_t feature_dim, size_t hidden_dim) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashOptions opts = SmallOptions(SplashMode::kForceStructural);
  opts.augment.feature_dim = feature_dim;
  opts.slim.hidden_dim = hidden_dim;
  opts.slim.time_dim = 16;
  opts.slim.k_recent = 10;
  SplashPredictor model(opts);
  ASSERT_TRUE(model.Prepare(ds, split).ok());
  // One train step, so the biases are no longer zero.
  const size_t half = ds.stream.size() / 2;
  model.ObserveBulk(ds.stream, 0, half);
  model.SetTraining(true);
  model.TrainBatch(TrainQueries(ds, half, 0));
  model.SetTraining(false);

  // Fresh streaming state, then one edge per history slot.
  model.ResetState();
  const size_t k = opts.slim.k_recent;
  const NodeId nodes[] = {40, 10, 20, 30};
  const size_t history[] = {0, 1, k / 2, k + 2};  // the last ring overflows
  NodeId peer = 100;
  double t = 1.0;
  size_t edge_index = 0;
  for (size_t q = 0; q < 4; ++q) {
    for (size_t e = 0; e < history[q]; ++e) {
      model.ObserveEdge(TemporalEdge(nodes[q], peer++, t), edge_index++);
      t += 1.0;
    }
  }
  std::vector<PropertyQuery> batch;
  for (NodeId node : nodes) batch.push_back(PropertyQuery{node, t, 0});

  std::vector<const char*> backends = {"scalar", "avx2", "avx512"};
  for (const char* backend : backends) {
    if (!SetKernelBackendForTesting(backend)) continue;  // not on this CPU
    SplashQueryScratch batched, single;
    const Matrix& all = model.PredictBatchConst(batch, &batched);
    for (size_t q = 0; q < batch.size(); ++q) {
      size_t valid = 0;
      for (size_t j = 0; j < k; ++j) valid += batched.batch.mask(q, j) != 0;
      ASSERT_EQ(valid, std::min(history[q], k)) << "query " << q;
      const Matrix& one = model.PredictBatchConst({batch[q]}, &single);
      ASSERT_EQ(one.rows(), 1u);
      EXPECT_EQ(std::memcmp(one.Row(0), all.Row(q),
                            all.cols() * sizeof(float)),
                0)
          << backend << " fd" << feature_dim << "/h" << hidden_dim
          << ": node with " << valid << " valid slots";
    }
  }
  ASSERT_TRUE(SetKernelBackendForTesting("auto"));
}

TEST(SplashSmokeTest, OneRowReadsMatchBatchedRowsAtPaperDims) {
  CheckOneRowReadsMatchBatchedRows(32, 64);
}

TEST(SplashSmokeTest, OneRowReadsMatchBatchedRowsWide) {
  CheckOneRowReadsMatchBatchedRows(64, 1024);
}

// The cold-read memo's oracle. A one-row read of a node no edge has
// touched, answered from the memo, is memcmp-equal to the same read
// computed — after PrepareForPublish, after a train step, in a
// CopyModelFrom copy and after a checkpoint round trip — in every mode
// and on every kernel backend; a memo whose weights version has moved is
// never served. kPlainRandom hashes each node its own feature row, so an
// untouched node's row is not the cold row and its reads compute.
TEST(SplashSmokeTest, ColdReadsFromTheMemoMatchComputedReads) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  const size_t half = ds.stream.size() / 2;
  const std::vector<PropertyQuery> read = {PropertyQuery{
      static_cast<NodeId>(ds.stream.num_nodes() + 7),
      ds.stream[half - 1].time, 0}};
  for (const char* backend : {"scalar", "avx2", "avx512"}) {
    if (!SetKernelBackendForTesting(backend)) continue;  // not on this CPU
    for (SplashMode mode :
         {SplashMode::kAuto, SplashMode::kForceRandom,
          SplashMode::kForcePositional, SplashMode::kForceStructural,
          SplashMode::kJoint, SplashMode::kZeroFeatures,
          SplashMode::kPlainRandom}) {
      SCOPED_TRACE(std::string(backend) + " " + SplashModeName(mode));
      const bool memo = mode != SplashMode::kPlainRandom;
      SplashQueryScratch scratch;
      // The read's scores, and whether the memo answered it.
      auto read_scores = [&](const SplashPredictor& p, bool* cold) {
        const Matrix& out = p.PredictBatchConst(read, &scratch);
        *cold = scratch.cold_read;
        return std::vector<float>(out.Row(0), out.Row(0) + out.cols());
      };
      auto same_bits = [](const std::vector<float>& a,
                          const std::vector<float>& b) {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
      };
      bool cold = false;

      SplashPredictor model(SmallOptions(mode));
      ASSERT_TRUE(model.Prepare(ds, split).ok());
      model.ObserveBulk(ds.stream, 0, half);
      const std::vector<float> computed = read_scores(model, &cold);
      EXPECT_FALSE(cold) << "a memo before the first publish";
      model.PrepareForPublish();
      EXPECT_TRUE(same_bits(read_scores(model, &cold), computed))
          << "after publish";
      EXPECT_EQ(cold, memo);

      // A train step moves the weights version: the old memo is stale.
      model.SetTraining(true);
      model.StageBatch(TrainQueries(ds, half, 0));
      model.TrainStaged();
      model.SetTraining(false);
      const std::vector<float> trained = read_scores(model, &cold);
      EXPECT_FALSE(cold) << "a stale memo was served";
      EXPECT_FALSE(same_bits(trained, computed))
          << "the step left the read unchanged";
      model.PrepareForPublish();
      EXPECT_TRUE(same_bits(read_scores(model, &cold), trained))
          << "after TrainStaged";
      EXPECT_EQ(cold, memo);

      // The copy takes the memo with the weights: no publish needed.
      SplashPredictor twin(SmallOptions(mode));
      ASSERT_TRUE(twin.Prepare(ds, split).ok());
      twin.PrepareForPublish();
      ASSERT_TRUE(twin.CopyModelFrom(model).ok());
      EXPECT_TRUE(same_bits(read_scores(twin, &cold), trained))
          << "after CopyModelFrom";
      EXPECT_EQ(cold, memo);

      // Not serialized; rebuilt by DeserializeState.
      SplashPredictor restored(SmallOptions(mode));
      const std::vector<uint8_t> bytes = StateBytes(model);
      ByteReader r(bytes);
      ASSERT_TRUE(restored.DeserializeState(&r).ok());
      EXPECT_TRUE(same_bits(read_scores(restored, &cold), trained))
          << "after restore";
      EXPECT_EQ(cold, memo);
    }
  }
  ASSERT_TRUE(SetKernelBackendForTesting("auto"));
}

// The serve catch-up as the service runs it: one train state, taken from
// the trainer, trains it; the twin is a read-only copy and takes only the
// weights and Rng position. Serialized with that one train state,
// both replicas write the same bytes after every step.
TEST(SplashSmokeTest, ReadOnlyReplicaCopyMatchesTrainingBytes) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashOptions opts = SmallOptions(SplashMode::kForceStructural);
  opts.slim.dropout = 0.2f;
  SplashPredictor trainer(opts);
  ASSERT_TRUE(trainer.Prepare(ds, split).ok());
  const std::unique_ptr<SlimTrainState> train = trainer.ReleaseTrainState();
  ASSERT_NE(train, nullptr);
  SplashPredictor replica(trainer);
  EXPECT_EQ(replica.ReleaseTrainState(), nullptr) << "copy is read-only";
  trainer.SetTraining(true);

  constexpr size_t kSteps = 6;
  const size_t per_step = ds.stream.size() / kSteps;
  for (size_t step = 0; step < kSteps; ++step) {
    const size_t lo = step * per_step, hi = lo + per_step;
    trainer.ObserveBulk(ds.stream, lo, hi);
    replica.ObserveBulk(ds.stream, lo, hi);
    ByteWriter before;
    trainer.SerializeState(&before, train.get());
    trainer.StageBatch(TrainQueries(ds, hi, step));
    trainer.TrainStaged(train.get());
    ASSERT_TRUE(replica.CopyModelFrom(trainer).ok());
    ByteWriter want, got;
    trainer.SerializeState(&want, train.get());
    ASSERT_EQ(ReadSlimAdamSteps(want.buffer()),
              ReadSlimAdamSteps(before.buffer()) + 1)
        << "the step trained";
    replica.SerializeState(&got, train.get());
    ASSERT_EQ(got.buffer(), want.buffer()) << "step " << step;
  }
}

// The serve boot's oracle: a copy-constructed predictor holds the source's
// state bytes and, drawing dropout from its own Rng, keeps training in
// lockstep with it.
TEST(SplashSmokeTest, CopyConstructedPredictorTrainsInLockstep) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashOptions opts = SmallOptions(SplashMode::kForceStructural);
  opts.slim.dropout = 0.2f;
  SplashPredictor source(opts);
  ASSERT_TRUE(source.Prepare(ds, split).ok());
  const size_t half = ds.stream.size() / 2;
  source.ObserveBulk(ds.stream, 0, half);
  source.SetTraining(true);
  source.TrainBatch(TrainQueries(ds, half, 0));

  SplashPredictor copy(source);
  ASSERT_EQ(StateBytes(copy), StateBytes(source));
  for (size_t step = 1; step < 4; ++step) {
    const size_t lo = half + (step - 1) * 100, hi = lo + 100;
    for (SplashPredictor* p : {&source, &copy}) {
      p->ObserveBulk(ds.stream, lo, hi);
      p->TrainBatch(TrainQueries(ds, hi, step));
    }
    ASSERT_EQ(StateBytes(copy), StateBytes(source)) << "step " << step;
  }
}

// Each mode keeps only the augmenter rows it reads, and its checkpoint
// restores into a fresh predictor with the same bytes and the same scores.
TEST(SplashSmokeTest, CheckpointRoundTripsInEveryMode) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  for (SplashMode mode :
       {SplashMode::kAuto, SplashMode::kForceRandom,
        SplashMode::kForcePositional, SplashMode::kForceStructural,
        SplashMode::kJoint}) {
    SCOPED_TRACE(SplashModeName(mode));
    SplashPredictor model(SmallOptions(mode));
    ASSERT_TRUE(model.Prepare(ds, split).ok());
    const AugmentationProcess sel = model.selected_process();
    const bool reads_r =
        mode == SplashMode::kJoint || sel == AugmentationProcess::kRandom;
    const bool reads_p =
        mode == SplashMode::kJoint || sel == AugmentationProcess::kPositional;
    const FeatureAugmenter& aug = model.augmenter();
    EXPECT_EQ(aug.keeps(AugmentationProcess::kRandom), reads_r);
    EXPECT_EQ(aug.keeps(AugmentationProcess::kPositional), reads_p);
    EXPECT_EQ(aug.feature_row_bytes() == 0, !reads_r && !reads_p);

    model.ObserveBulk(ds.stream, 0, ds.stream.size());
    const std::vector<uint8_t> bytes = StateBytes(model);
    SplashPredictor restored(SmallOptions(mode));
    ByteReader r(bytes);
    ASSERT_TRUE(restored.DeserializeState(&r).ok());
    EXPECT_EQ(restored.selected_process(), sel);
    EXPECT_EQ(StateBytes(restored), bytes);

    const std::vector<PropertyQuery> qs =
        TrainQueries(ds, ds.stream.size(), 0);
    SplashQueryScratch want_scratch, got_scratch;
    const Matrix& want = model.PredictBatchConst(qs, &want_scratch);
    const Matrix& got = restored.PredictBatchConst(qs, &got_scratch);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (size_t i = 0; i < want.rows(); ++i) {
      ASSERT_EQ(std::memcmp(got.Row(i), want.Row(i),
                            want.cols() * sizeof(float)),
                0)
          << "row " << i;
    }
  }
}

// kAuto narrows the kept set to its pick after selection; preparing again
// widens it back for selection and regrows the rows it dropped.
TEST(SplashSmokeTest, AutoModeRepreparesFromANarrowedKeptSet) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashPredictor once(SmallOptions(SplashMode::kAuto));
  SplashPredictor twice(SmallOptions(SplashMode::kAuto));
  ASSERT_TRUE(once.Prepare(ds, split).ok());
  ASSERT_TRUE(twice.Prepare(ds, split).ok());
  twice.ObserveBulk(ds.stream, 0, ds.stream.size() / 2);
  ASSERT_TRUE(twice.Prepare(ds, split).ok());
  EXPECT_EQ(twice.selected_process(), once.selected_process());
  ByteWriter want, got;
  once.augmenter().Serialize(&want);
  twice.augmenter().Serialize(&got);
  EXPECT_EQ(got.buffer(), want.buffer());
}

// State version 2 changed the augmenter's part; a version-1 blob is
// refused by name, not misread. The selected process, from which the
// kept set follows, must name a process.
TEST(SplashSmokeTest, RefusesVersionOneStateAndUnknownProcess) {
  const Dataset ds = SmallClassification();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashPredictor model(SmallOptions(SplashMode::kForceStructural));
  ASSERT_TRUE(model.Prepare(ds, split).ok());
  const std::vector<uint8_t> bytes = StateBytes(model);
  // Header: magic, version (u32 each), seed (u64), mode (u32),
  // feature_dim (u64), selected process (u32).
  constexpr size_t kVersionAt = 4, kSelectedAt = 28;
  auto refusal = [&](size_t offset, uint32_t value) {
    std::vector<uint8_t> blob = bytes;
    ByteWriter field;
    field.U32(value);
    std::memcpy(blob.data() + offset, field.buffer().data(), 4);
    SplashPredictor fresh(SmallOptions(SplashMode::kForceStructural));
    ByteReader r(blob);
    const Status st = fresh.DeserializeState(&r);
    return st.ok() ? std::string() : st.message();
  };
  ASSERT_EQ(refusal(kSelectedAt, 2), "");  // kStructural: the control
  EXPECT_NE(refusal(kVersionAt, 1).find("version 1"), std::string::npos)
      << refusal(kVersionAt, 1);
  EXPECT_NE(refusal(kSelectedAt, 3), "");
}

TEST(SplashSmokeTest, ShiftIntensityStreamHasUnseenTestNodes) {
  const Dataset ds = GenerateShiftIntensity(90, 6000);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  std::vector<uint8_t> seen(ds.stream.num_nodes(), 0);
  for (size_t i = 0; i < ds.stream.size(); ++i) {
    if (ds.stream[i].time > split.train_end_time) break;
    seen[ds.stream[i].src] = 1;
    seen[ds.stream[i].dst] = 1;
  }
  size_t unseen_queries = 0, test_queries = 0;
  for (const PropertyQuery& q : ds.queries) {
    if (q.time <= split.val_end_time) continue;
    ++test_queries;
    unseen_queries += !seen[q.node];
  }
  ASSERT_GT(test_queries, 50u);
  // Intensity 90 must produce a majority-unseen test period.
  EXPECT_GT(static_cast<double>(unseen_queries) /
                static_cast<double>(test_queries),
            0.4);
}

}  // namespace
}  // namespace splash
