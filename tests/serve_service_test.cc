// Copyright 2026 The SPLASH Reproduction Authors.
//
// Correctness contracts of the serving subsystem (ISSUE 4):
//   - ORACLE: a query answered from a snapshot at watermark W is
//     bit-identical to a serial replay of the ingest log truncated at
//     W — the snapshot scheme loses nothing and leaks nothing (no future
//     edge, no partial batch);
//   - the same holds with online training feedback, replaying the
//     (edge range, train batch) apply sequence the WAL recorded;
//   - backpressure: kDropNewest rejects beyond the queue bound and the
//     published state reflects exactly the accepted items;
//   - watermarks are monotone, Flush publishes everything accepted, and
//     the drift counters (unseen-node queries, novel ingest ids) move;
//   - cold_reads counts the untouched-node reads the memo answered, every
//     row of a multi-row read equals that node's one-row read at the same
//     watermark, and Validate refuses a micro-batch larger than the queue;
//   - IngestResult classifies every rejection, Validate names the
//     offending field, ScoreEdge scores the larger endpoint margin, and a
//     departed client's latency samples stay in Stats().

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/splash.h"
#include "datasets/synthetic.h"
#include "eval/trainer.h"
#include "serve/service.h"
#include "tests/serve_test_util.h"

namespace splash {
namespace {

class ServeServiceTest : public ::testing::Test {};

Dataset MakeWarmup(size_t num_edges = 3000) {
  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 150;
  cfg.num_edges = num_edges;
  cfg.num_communities = 3;
  cfg.intra_prob = 0.9;
  cfg.query_rate = 0.25;
  cfg.late_arrival_frac = 0.2;
  cfg.seed = 21;
  return GenerateSynthetic(cfg);
}

SplashOptions SmallModelOptions() {
  SplashOptions opts;
  opts.mode = SplashMode::kForceStructural;  // no selection pass: fast
  opts.augment.feature_dim = 12;
  opts.slim.hidden_dim = 24;
  opts.slim.time_dim = 8;
  opts.slim.k_recent = 5;
  opts.slim.dropout = 0.0f;
  opts.seed = 5;
  return opts;
}

TrainerOptions SmallFit() {
  TrainerOptions fit;
  fit.epochs = 2;
  fit.batch_size = 64;
  fit.early_stopping = false;
  return fit;
}

/// The serving traffic: edges of `ds` after the validation boundary (the
/// "live" period a deployed service would ingest).
std::vector<TemporalEdge> LiveEdges(const Dataset& ds,
                                    const ChronoSplit& split) {
  std::vector<TemporalEdge> live;
  for (size_t i = 0; i < ds.stream.size(); ++i) {
    if (ds.stream[i].time > split.val_end_time) live.push_back(ds.stream[i]);
  }
  return live;
}

std::vector<PropertyQuery> ProbeQueries(const Dataset& ds, size_t n) {
  std::vector<PropertyQuery> probe(ds.queries.end() - n, ds.queries.end());
  return probe;
}

/// Serial reference: a fresh predictor through the identical deterministic
/// prepare+fit, then per-edge replay of `edges[0..w)`.
std::unique_ptr<SplashPredictor> MakeReference(const Dataset& ds,
                                               const ChronoSplit& split) {
  auto ref = std::make_unique<SplashPredictor>(SmallModelOptions());
  EXPECT_TRUE(ref->Prepare(ds, split).ok());
  TrainerOptions fit = SmallFit();
  StreamTrainer trainer(fit);
  trainer.Fit(ref.get(), ds, split);
  ref->SetTraining(false);
  ref->ResetState();
  return ref;
}

/// Reads the reference through the same path the service's query tier
/// uses: the const forward. The oracle contract is "service read ==
/// reference read through the same path", bit for bit.
Matrix ReferenceScores(const SplashPredictor* ref,
                       const std::vector<PropertyQuery>& probe) {
  SplashQueryScratch scratch;
  return ref->PredictBatchConst(probe, &scratch);
}

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " element " << i;
  }
}

#if defined(__SANITIZE_THREAD__)
#define SPLASH_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPLASH_UNDER_TSAN 1
#endif
#endif

/// Threads of this process, from /proc/self/task (Linux).
size_t ProcessThreads() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Forwards every call to a SplashPredictor and samples the process's
/// threads at each StageBatch, the point of a replay where an ingest
/// stage running beside the compute would be alive.
class ThreadSamplingPredictor final : public TemporalPredictor {
 public:
  explicit ThreadSamplingPredictor(SplashPredictor* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  Status Prepare(const Dataset& ds, const ChronoSplit& split) override {
    return inner_->Prepare(ds, split);
  }
  void ResetState() override { inner_->ResetState(); }
  void ObserveEdge(const TemporalEdge& e, size_t edge_index) override {
    inner_->ObserveEdge(e, edge_index);
  }
  void ObserveBulk(const EdgeStream& stream, size_t begin,
                   size_t end) override {
    inner_->ObserveBulk(stream, begin, end);
  }
  void StageBatch(const std::vector<PropertyQuery>& queries) override {
    ++samples;
    max_threads = std::max(max_threads, ProcessThreads());
    inner_->StageBatch(queries);
  }
  double TrainStaged() override { return inner_->TrainStaged(); }
  Matrix PredictStaged() override { return inner_->PredictStaged(); }
  void SetTraining(bool training) override { inner_->SetTraining(training); }
  size_t ParamCount() const override { return inner_->ParamCount(); }

  size_t samples = 0;
  size_t max_threads = 0;

 private:
  SplashPredictor* inner_;
};

// Registered first, so it runs before any other test of this binary has
// started a thread. Each stage runs on one thread (DESIGN.md §1): a
// replay runs on the caller's thread and starts none, not even while it
// stages a batch, and a started service adds exactly its apply thread,
// joined by Stop, and its catch-up PipelineThread, joined when the
// service is destroyed. Default options throughout, so no knob hides a
// helper.
TEST(StageThreadsTest, FitAndServiceStartOnlyTheNamedStageThreads) {
  // ThreadSanitizer starts a helper thread of its own at the first thread
  // creation; start and join one first so the baseline includes it.
  std::thread([] {}).join();
  const size_t base = ProcessThreads();
#if !defined(SPLASH_UNDER_TSAN)
  EXPECT_EQ(base, 1u) << "a thread outlived static initialization";
#endif
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);

  SplashPredictor model(SmallModelOptions());
  ThreadSamplingPredictor sampled(&model);
  ASSERT_TRUE(sampled.Prepare(ds, split).ok());
  StreamTrainer trainer{TrainerOptions{}};
  trainer.Fit(&sampled, ds, split);
  ASSERT_GT(sampled.samples, 0u);
  EXPECT_EQ(sampled.max_threads, base) << "inside StreamTrainer::Fit";
  EXPECT_EQ(ProcessThreads(), base) << "after StreamTrainer::Fit";

  {
    SplashService service(SplashOptions{}, SplashServiceOptions{});
    ASSERT_TRUE(service.Start(ds, split).ok());
    EXPECT_EQ(ProcessThreads(), base + 2) << "after SplashService::Start";
    service.Stop();
    EXPECT_EQ(ProcessThreads(), base + 1) << "after Stop (pipeline idle)";
  }
  EXPECT_EQ(ProcessThreads(), base) << "after the service is destroyed";
}

TEST_F(ServeServiceTest, SnapshotQueryBitIdenticalToSerialReplayTruncatedAtW) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 400u);
  const std::vector<PropertyQuery> probe = ProbeQueries(ds, 40);

  SplashServiceOptions sopts;
  sopts.microbatch_max_items = 64;
  sopts.microbatch_max_delay_s = 0.0005;
  sopts.train_on_ingest_labels = false;
  SplashService service(SmallModelOptions(), sopts);
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(service.Start(ds, split, &fit).ok());
  ServeClient client(&service);

  // Ingest in uneven chunks; at each Flush the published watermark must be
  // exactly the ingest count and the answer bit-identical to a serial
  // replay truncated there.
  auto ref = MakeReference(ds, split);
  size_t ref_cursor = 0;
  size_t fed = 0;
  for (const size_t chunk : {7u, 150u, 64u, 233u}) {
    for (size_t i = 0; i < chunk && fed < live.size(); ++i, ++fed) {
      ASSERT_TRUE(service.IngestEdge(live[fed]).accepted());
    }
    service.Flush();

    ServeResponse resp;
    client.Predict(probe, &resp);
    ASSERT_EQ(resp.watermark_seq, fed) << "Flush did not publish everything";
    EXPECT_EQ(resp.watermark_time, fed > 0 ? live[fed - 1].time : 0.0);

    // Serial truncated replay to the same watermark (the reference clamps
    // timestamps the same way the service log does — none regress here).
    for (; ref_cursor < fed; ++ref_cursor) {
      ref->ObserveEdge(live[ref_cursor], ref_cursor);
    }
    const Matrix want = ReferenceScores(ref.get(), probe);
    ExpectBitEqual(want, resp.scores, "snapshot vs serial replay");
  }
  service.Stop();

  // The snapshot survives Stop(): same watermark, same bits.
  ServeResponse after;
  client.Predict(probe, &after);
  EXPECT_EQ(after.watermark_seq, fed);
  const Matrix want = ReferenceScores(ref.get(), probe);
  ExpectBitEqual(want, after.scores, "post-Stop snapshot");
}

TEST_F(ServeServiceTest, TrainingFeedbackReplaysBitIdenticalViaApplyLog) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  const std::vector<PropertyQuery> probe = ProbeQueries(ds, 30);

  TempDir dir;
  SplashServiceOptions sopts;
  sopts.microbatch_max_items = 48;
  sopts.microbatch_max_delay_s = 0.0005;
  sopts.train_on_ingest_labels = true;
  KeepWalHistory(dir.path(), &sopts);
  SplashService service(SmallModelOptions(), sopts);
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(service.RecoverOrStart(ds, split, &fit).ok());
  ServeClient client(&service);

  // Interleave edges with labeled feedback (every 10th edge's destination).
  const size_t n = std::min<size_t>(live.size(), 600);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(service.IngestEdge(live[i]).accepted());
    if (i % 10 == 9) {
      PropertyQuery q;
      q.node = live[i].dst;
      q.time = live[i].time;
      q.class_label = static_cast<int>(i / 10 % 3);
      ASSERT_TRUE(service.SubmitTrain(q).accepted());
    }
  }
  service.Flush();
  ServeResponse resp;
  client.Predict(probe, &resp);
  EXPECT_EQ(resp.watermark_seq, n);
  service.Stop();
  EXPECT_GT(service.Stats().counters.train_steps, 0u);

  // Reference: replay the apply sequence the WAL recorded — ObserveBulk
  // per batch boundary, staged train at the recorded positions.
  // Bit-identical because both replicas and the
  // reference are the same deterministic state machine fed the same ops.
  auto ref = MakeReference(ds, split);
  const EdgeStream& log = service.ingest_log();
  ASSERT_EQ(log.size(), n);
  size_t cursor = 0;
  uint64_t train_batches = 0;
  for (const WalRecord& rec : WalHistory(dir.path())) {
    if (rec.seq_end > cursor) {
      ref->ObserveBulk(log, cursor, rec.seq_end);
      cursor = rec.seq_end;
    }
    if (!rec.train.empty()) {
      ref->SetTraining(true);
      ref->StageBatch(rec.train);
      ref->TrainStaged();
      ref->SetTraining(false);
      ++train_batches;
    }
  }
  ASSERT_EQ(cursor, n);
  ASSERT_EQ(train_batches, service.Stats().counters.train_steps);
  const Matrix want = ReferenceScores(ref.get(), probe);
  ExpectBitEqual(want, resp.scores, "train-feedback snapshot vs replay");
}

TEST_F(ServeServiceTest, OnlyTrainingBatchesStepTheOptimizer) {
  // An edge-only micro-batch publishes and catches up without a train
  // step, and a training batch costs exactly one: the published replica
  // trains, the catch-up replica copies its weights instead of training
  // again. The service's one train state shows it: its Adam step count,
  // as the predictor state bytes carry it, moves once per training batch.
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 8u);

  SplashServiceOptions sopts;
  sopts.microbatch_max_delay_s = 0.0;
  sopts.train_on_ingest_labels = true;
  SplashService service(SmallModelOptions(), sopts);
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(service.Start(ds, split, &fit).ok());
  EXPECT_EQ(service.Stats().counters.train_steps, 0u)
      << "Prepare/Fit steps must not count as serving train steps";
  const uint64_t fit_steps = ServiceAdamSteps(service);
  EXPECT_GT(fit_steps, 0u) << "Fit trained";

  // N edge-only micro-batches (one edge each, flushed apart).
  constexpr size_t kEdgeBatches = 6;
  for (size_t i = 0; i < kEdgeBatches; ++i) {
    ASSERT_TRUE(service.IngestEdge(live[i]).accepted());
    service.Flush();
  }
  ServeCounters c = service.Stats().counters;
  EXPECT_EQ(c.batches_applied, kEdgeBatches);
  EXPECT_EQ(c.train_steps, 0u);

  // One micro-batch holding a single train row.
  PropertyQuery q;
  q.node = live[kEdgeBatches - 1].dst;
  q.time = live[kEdgeBatches - 1].time;
  q.class_label = 1;
  ASSERT_TRUE(service.SubmitTrain(q).accepted());
  service.Flush();
  service.Stop();  // retires the last catch-up: a quiesced read
  c = service.Stats().counters;
  EXPECT_EQ(c.batches_applied, kEdgeBatches + 1);
  EXPECT_EQ(c.train_steps, 1u);
  EXPECT_EQ(ServiceAdamSteps(service), fit_steps + 1)
      << "one TrainStep on the published replica, none for the edge-only "
         "batches; the catch-up replica copies its weights and never "
         "trains";
}

TEST_F(ServeServiceTest, DropNewestBackpressureCountsAndStaysConsistent) {
  const Dataset ds = MakeWarmup(1200);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 100u);

  SplashServiceOptions sopts;
  sopts.queue_capacity = 2;
  sopts.backpressure = BackpressurePolicy::kDropNewest;
  // A batch of the whole queue: the apply thread waits until the queue is
  // full, and the burst keeps pushing while it wakes and applies.
  sopts.microbatch_max_items = 2;
  sopts.microbatch_max_delay_s = 0.2;
  sopts.train_on_ingest_labels = false;
  SplashService service(SmallModelOptions(), sopts);
  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());

  size_t accepted = 0;
  for (size_t i = 0; i < 100; ++i) {
    if (service.IngestEdge(live[i]).accepted()) ++accepted;
  }
  service.Flush();
  service.Stop();

  const ServeStats st = service.Stats();
  EXPECT_GT(st.counters.ingest_dropped, 0u) << "queue of 2 never overflowed?";
  EXPECT_EQ(st.counters.ingest_accepted, accepted);
  EXPECT_EQ(st.counters.ingest_accepted + st.counters.ingest_dropped, 100u);
  // Published state reflects exactly the accepted prefix.
  EXPECT_EQ(st.counters.published_seq, accepted);
  EXPECT_EQ(service.ingest_log().size(), accepted);
  // The burst must have filled the queue to its bound — the high
  // watermark proves the drops were backpressure, not a bug.
  EXPECT_EQ(st.counters.queue_high_watermark, 2u);
}

TEST_F(ServeServiceTest, DeadlineFlagRetryHelperAndNonDurableDefaults) {
  const Dataset ds = MakeWarmup(1200);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  SplashServiceOptions sopts;
  SplashService service(SmallModelOptions(), sopts);
  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());
  ServeClient client(&service);
  const double t = ds.stream.max_time();

  // A zero timeout means "no deadline"; an impossible one must flag the
  // overrun while still returning the (computed) answer.
  ServeResponse none;
  client.PredictNode(1, t, &none);
  EXPECT_FALSE(none.deadline_exceeded);
  ServeResponse generous;
  client.PredictNode(1, t, &generous, /*timeout_s=*/30.0);
  EXPECT_FALSE(generous.deadline_exceeded);
  ServeResponse tight;
  client.ScoreEdge(1, 2, t, &tight, /*timeout_s=*/1e-12);
  EXPECT_TRUE(tight.deadline_exceeded);
  EXPECT_EQ(tight.scores.rows(), 2u) << "late answer must still be returned";
  ServeResponse on_time;
  client.ScoreEdge(1, 2, t, &on_time);
  EXPECT_FALSE(on_time.deadline_exceeded);
  ExpectBitEqual(on_time.scores, tight.scores, "late answer");
  EXPECT_EQ(tight.score, on_time.score);

  // Non-durable service: the degraded flag can never be set.
  EXPECT_FALSE(service.degraded());
  EXPECT_FALSE(none.degraded);
  EXPECT_FALSE(service.Stats().counters.degraded);

  // Retry helper: boundary-invalid edges are rejected without retrying
  // (they can never succeed); valid edges pass through.
  EXPECT_FALSE(client.IngestEdgeWithRetry(
      TemporalEdge(1, 2, std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(client.IngestEdgeWithRetry(TemporalEdge(1, 2, t)));
  service.Flush();
  EXPECT_EQ(service.published_seq(), 1u);
  service.Stop();

  // Stopped service: attempts are bounded — this returns, it never spins.
  EXPECT_FALSE(client.IngestEdgeWithRetry(TemporalEdge(1, 2, t),
                                          /*max_attempts=*/3,
                                          /*initial_backoff_s=*/1e-4));
  const ServeStats st = service.Stats();
  EXPECT_EQ(st.counters.ingest_accepted, 1u);
}

// A micro-batch larger than the ingest queue can never fill, so the
// apply thread's fill wait would time out on every batch. Validate
// refuses the pair and names both fields; a batch of the whole queue is
// fine.
TEST_F(ServeServiceTest, ValidateRejectsMicrobatchLargerThanQueue) {
  SplashServiceOptions o;
  o.queue_capacity = 8;
  o.microbatch_max_items = 8;
  EXPECT_TRUE(o.Validate().ok());
  o.microbatch_max_items = 9;
  const Status st = o.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("microbatch_max_items"), std::string::npos);
  EXPECT_NE(st.message().find("queue_capacity"), std::string::npos);

  const Dataset ds = MakeWarmup(600);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  SplashService service(SmallModelOptions(), o);
  const Status start = service.Start(ds, split, nullptr);
  EXPECT_FALSE(start.ok());
  EXPECT_NE(start.message().find("queue_capacity"), std::string::npos);
}

// cold_reads counts the one-row reads the published replica's memo
// answered: untouched nodes. A node with history, a batched read and, in
// kPlainRandom (each node hashes its own feature row), every read
// compute and are not counted. The memo's answer is the batched row.
TEST_F(ServeServiceTest, ColdReadsCountOnlyUntouchedOneRowReads) {
  const Dataset ds = MakeWarmup(1500);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_FALSE(live.empty());
  const NodeId untouched = static_cast<NodeId>(ds.stream.num_nodes() + 100);
  const double t = ds.stream.max_time() + 1.0;
  for (SplashMode mode :
       {SplashMode::kForceStructural, SplashMode::kPlainRandom}) {
    SCOPED_TRACE(SplashModeName(mode));
    SplashOptions model = SmallModelOptions();
    model.mode = mode;
    SplashService service(model, SplashServiceOptions());
    ASSERT_TRUE(service.Start(ds, split, nullptr).ok());
    ASSERT_TRUE(service.IngestEdge(live[0]).accepted());
    service.Flush();
    ServeClient client(&service);

    ServeResponse cold;
    for (int i = 0; i < 3; ++i) client.PredictNode(untouched, t, &cold);
    const uint64_t after_cold = service.Counters().cold_reads;
    ServeResponse history, batched;
    client.PredictNode(live[0].src, t, &history);
    const PropertyQuery q{untouched, t, 0};
    client.Predict({q, q}, &batched);
    const ServeCounters c = service.Counters();
    service.Stop();

    const bool memo = mode != SplashMode::kPlainRandom;
    EXPECT_EQ(after_cold, memo ? 3u : 0u);
    EXPECT_EQ(c.cold_reads, after_cold) << "history or batch read counted";
    EXPECT_EQ(c.queries, 6u);
    ASSERT_EQ(batched.scores.rows(), 2u);
    ASSERT_EQ(cold.scores.cols(), batched.scores.cols());
    EXPECT_EQ(std::memcmp(cold.scores.Row(0), batched.scores.Row(0),
                          cold.scores.cols() * sizeof(float)),
              0);
  }
}

// A multi-row read runs the batched forward and a one-row read the one-row
// kernels (or the cold-read memo); each row of a batch, whatever its
// shape, must carry the bits of that node's one-row read against the same
// snapshot, and the counters move by exactly the rows scored.
TEST_F(ServeServiceTest, MultiRowReadRowsEqualOneRowReads) {
  const Dataset ds = MakeWarmup(2000);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 300u);
  SplashServiceOptions sopts;
  sopts.train_on_ingest_labels = false;
  SplashService service(SmallModelOptions(), sopts);
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(service.Start(ds, split, &fit).ok());
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(service.IngestEdge(live[i]).accepted());
  }
  service.Flush();
  ServeClient client(&service);

  // Slices of different sizes, each ending with the stream's last query
  // (a node the fit never saw) and, past the first, an untouched node the
  // memo answers on its own.
  const NodeId untouched = static_cast<NodeId>(ds.stream.num_nodes() + 100);
  for (size_t n = 1; n <= 6; ++n) {
    SCOPED_TRACE(n);
    std::vector<PropertyQuery> slice(ds.queries.end() - 4 * n,
                                     ds.queries.end() - 3 * n);
    if (n > 1) slice.push_back({untouched, slice.back().time, 0});
    slice.push_back(ds.queries.back());

    const ServeCounters pre = service.Counters();
    ServeResponse batch;
    client.Predict(slice, &batch);
    const ServeCounters post = service.Counters();
    EXPECT_EQ(post.queries - pre.queries, slice.size());
    EXPECT_GT(post.unseen_node_queries, pre.unseen_node_queries);
    EXPECT_EQ(batch.watermark_seq, 300u);
    ASSERT_EQ(batch.scores.rows(), slice.size());

    uint64_t unseen = 0;
    for (size_t r = 0; r < slice.size(); ++r) {
      const ServeCounters before = service.Counters();
      ServeResponse one;
      client.PredictNode(slice[r].node, slice[r].time, &one);
      unseen += service.Counters().unseen_node_queries -
                before.unseen_node_queries;
      EXPECT_EQ(one.watermark_seq, batch.watermark_seq);
      ASSERT_EQ(one.scores.cols(), batch.scores.cols());
      EXPECT_EQ(std::memcmp(one.scores.Row(0), batch.scores.Row(r),
                            one.scores.cols() * sizeof(float)),
                0)
          << "row " << r << " differs from its one-row read";
    }
    EXPECT_EQ(post.unseen_node_queries - pre.unseen_node_queries, unseen);
  }
  service.Stop();
}

TEST_F(ServeServiceTest, DriftCountersAndLatencyHistogramsMove) {
  const Dataset ds = MakeWarmup(1500);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);

  SplashServiceOptions sopts;
  sopts.microbatch_max_items = 32;
  sopts.microbatch_max_delay_s = 0.0005;
  SplashService service(SmallModelOptions(), sopts);
  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());
  ServeClient client(&service);

  const double t_end = ds.stream.max_time();
  // A node id far beyond the warmup id space: novel on ingest, unseen on
  // query — both drift counters must move.
  const NodeId novel = static_cast<NodeId>(ds.stream.num_nodes() + 500);
  ASSERT_TRUE(
      service.IngestEdge(TemporalEdge(novel, live[0].src, t_end)).accepted());
  // An out-of-order straggler: clamped, counted.
  const TemporalEdge straggler(live[0].src, live[0].dst, t_end - 5.0);
  ASSERT_TRUE(service.IngestEdge(straggler).accepted());
  service.Flush();

  ServeResponse r1;
  client.PredictNode(novel, t_end + 1.0, &r1);
  EXPECT_EQ(r1.watermark_seq, 2u);
  EXPECT_EQ(r1.watermark_time, t_end);  // straggler clamped to t_end
  ServeResponse r2;
  client.ScoreEdge(live[0].src, live[0].dst, t_end + 1.0, &r2);
  service.Stop();

  const ServeStats st = service.Stats();
  EXPECT_GE(st.counters.novel_ingest_nodes, 1u);
  EXPECT_GE(st.counters.unseen_node_queries, 1u);
  EXPECT_EQ(st.counters.time_regressions, 1u);
  EXPECT_EQ(st.counters.queries, 3u);  // 1 + 2 endpoint rows
  EXPECT_EQ(st.predict.count, 2u);     // two Predict calls
  EXPECT_GT(st.predict.p99_ns, 0.0);
  EXPECT_GE(st.ingest.count, 2u);
  EXPECT_GT(st.apply.count, 0u);
  EXPECT_GT(st.counters.batches_applied, 0u);

  // A departed client's samples stay in the service's predict digest.
  {
    ServeClient departed(&service);
    departed.PredictNode(novel, t_end + 1.0, &r1);
  }
  EXPECT_EQ(service.Stats().predict.count, 3u);
}

// ScoreEdge answers both endpoints from one snapshot: its rows are the
// endpoints' PredictNode rows bit for bit, and its score is the larger of
// their class-1 margins.
TEST_F(ServeServiceTest, ScoreEdgeIsTheMaxOfItsEndpointMargins) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  SplashServiceOptions sopts;
  sopts.train_on_ingest_labels = false;
  SplashService service(SmallModelOptions(), sopts);
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(service.Start(ds, split, &fit).ok());
  const size_t n = std::min<size_t>(live.size(), 300);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(service.IngestEdge(live[i]).accepted());
  }
  service.Flush();

  ServeClient client(&service);
  const double t = live[n - 1].time;
  const NodeId a = live[n - 1].src, b = live[n - 1].dst;
  ASSERT_NE(a, b);
  ServeResponse edge, ma, mb;
  client.ScoreEdge(a, b, t, &edge);
  client.PredictNode(a, t, &ma);
  client.PredictNode(b, t, &mb);
  service.Stop();

  // Quiesced, so the snapshot cannot move between the calls.
  ASSERT_EQ(edge.scores.rows(), 2u);
  ASSERT_EQ(ma.scores.cols(), edge.scores.cols());
  for (size_t c = 0; c < edge.scores.cols(); ++c) {
    EXPECT_EQ(edge.scores(0, c), ma.scores(0, c)) << "src row col " << c;
    EXPECT_EQ(edge.scores(1, c), mb.scores(0, c)) << "dst row col " << c;
  }
  EXPECT_NE(ma.score, mb.score) << "equal margins cannot tell max from min";
  EXPECT_EQ(edge.score, std::max(ma.score, mb.score));
  EXPECT_EQ(edge.watermark_seq, n);
}

TEST_F(ServeServiceTest, InvalidEdgesRejectedAtTheBoundary) {
  const Dataset ds = MakeWarmup(1200);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  SplashServiceOptions sopts;
  SplashService service(SmallModelOptions(), sopts);
  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());

  const double t = ds.stream.max_time();
  // Sentinel endpoint and non-finite timestamps must be rejected before
  // they can reach the log or size the node tables.
  EXPECT_FALSE(service.IngestEdge(TemporalEdge()).accepted());
  EXPECT_FALSE(service.IngestEdge(TemporalEdge(1, kInvalidNode, t)).accepted());
  EXPECT_FALSE(service.IngestEdge(
      TemporalEdge(1, 2, std::numeric_limits<double>::quiet_NaN())).accepted());
  EXPECT_FALSE(service.IngestEdge(
      TemporalEdge(1, 2, std::numeric_limits<double>::infinity())).accepted());
  EXPECT_TRUE(service.IngestEdge(TemporalEdge(1, 2, t)).accepted());
  service.Flush();
  service.Stop();

  const ServeStats st = service.Stats();
  EXPECT_EQ(st.counters.ingest_dropped, 4u);
  EXPECT_EQ(st.counters.ingest_accepted, 1u);
  EXPECT_EQ(service.ingest_log().size(), 1u);
  EXPECT_EQ(st.counters.published_seq, 1u);
}

TEST_F(ServeServiceTest, InvalidTrainFeedbackRejectedAtTheBoundary) {
  const Dataset ds = MakeWarmup(1200);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  SplashServiceOptions sopts;
  sopts.train_on_ingest_labels = true;
  SplashService service(SmallModelOptions(), sopts);
  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());
  ByteWriter before;
  service.SerializePredictorState(&before);

  // One bad field per query on an otherwise valid one: the sentinel node,
  // non-finite times, and labels either side of [0, num_classes).
  const int num_classes = static_cast<int>(std::max<size_t>(2, ds.num_classes));
  PropertyQuery good;
  good.node = 1;
  good.time = ds.stream.max_time();
  good.class_label = num_classes - 1;
  std::vector<PropertyQuery> bad(6, good);
  bad[0].node = kInvalidNode;
  bad[1].time = std::numeric_limits<double>::quiet_NaN();
  bad[2].time = std::numeric_limits<double>::infinity();
  bad[3].time = -std::numeric_limits<double>::infinity();
  bad[4].class_label = -1;
  bad[5].class_label = num_classes;
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(service.SubmitTrain(bad[i]).code(), IngestResult::kInvalid)
        << "bad query " << i;
  }
  service.Flush();
  ServeCounters c = service.Stats().counters;
  EXPECT_EQ(c.train_dropped, bad.size());
  EXPECT_EQ(c.train_accepted, 0u);
  EXPECT_EQ(c.batches_applied, 0u);
  EXPECT_EQ(c.train_steps, 0u);
  ByteWriter after;
  service.SerializePredictorState(&after);
  EXPECT_EQ(after.buffer(), before.buffer()) << "a rejected row trained";

  // The highest valid label is accepted and trains once.
  EXPECT_TRUE(service.SubmitTrain(good).accepted());
  service.Flush();
  service.Stop();
  c = service.Stats().counters;
  EXPECT_EQ(c.train_dropped, bad.size());
  EXPECT_EQ(c.train_accepted, 1u);
  EXPECT_EQ(c.train_steps, 1u);
}

TEST_F(ServeServiceTest, WatermarkMonotonePerClientAcrossUnflushedIngest) {
  const Dataset ds = MakeWarmup(2000);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);

  SplashServiceOptions sopts;
  sopts.microbatch_max_items = 16;
  sopts.microbatch_max_delay_s = 0.0;
  SplashService service(SmallModelOptions(), sopts);
  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());
  ServeClient client(&service);

  uint64_t last = 0;
  const size_t n = std::min<size_t>(live.size(), 500);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(service.IngestEdge(live[i]).accepted());
    if (i % 25 == 0) {
      ServeResponse r;
      client.PredictNode(live[i].src, live[i].time, &r);
      EXPECT_GE(r.watermark_seq, last) << "watermark went backwards";
      EXPECT_LE(r.watermark_seq, i + 1) << "watermark saw the future";
      last = r.watermark_seq;
    }
  }
  service.Stop();
  EXPECT_EQ(service.published_seq(), n);
}

// IngestResult classifies every admission outcome, so a retry loop can
// tell retryable backlog from permanent rejection without counters.
TEST_F(ServeServiceTest, IngestResultClassifiesRejections) {
  const Dataset ds = MakeWarmup(800);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_FALSE(live.empty());

  SplashServiceOptions sopts;
  sopts.queue_capacity = 4;
  sopts.backpressure = BackpressurePolicy::kDropNewest;
  sopts.microbatch_max_items = 4;  // apply waits for a full queue
  sopts.microbatch_max_delay_s = 0.05;
  sopts.train_on_ingest_labels = false;
  SplashService service(SmallModelOptions(), sopts);

  // Before Start: permanently rejected, not retryable.
  EXPECT_EQ(service.IngestEdge(live[0]).code(), IngestResult::kStopped);
  EXPECT_FALSE(service.IngestEdge(live[0]).retryable());

  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());

  // Boundary rejection: kInvalid, never retryable, counted as a drop.
  const IngestResult bad =
      service.IngestEdge(TemporalEdge{kInvalidNode, 3, 1.0});
  EXPECT_EQ(bad.code(), IngestResult::kInvalid);
  EXPECT_FALSE(bad.accepted());
  EXPECT_FALSE(bad.retryable());
  static_assert(!std::is_constructible<bool, IngestResult>::value,
                "callers read .accepted(); there is no bool conversion");

  // Backlog pressure: a tiny kDropNewest ring under a burst classifies
  // every non-accepted push as retryable backlog — nothing else.
  size_t accepted = 0, backlog = 0;
  for (size_t i = 0; i < 2000; ++i) {
    const IngestResult r = service.IngestEdge(live[i % live.size()]);
    if (r.accepted()) {
      ++accepted;
    } else {
      ASSERT_EQ(r.code(), IngestResult::kBacklogDropped);
      ASSERT_TRUE(r.retryable());
      ++backlog;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(backlog, 0u);
  const ServeCounters c = service.Counters();
  EXPECT_EQ(c.ingest_accepted, accepted);
  EXPECT_EQ(c.ingest_dropped, backlog + 1);  // + the kInvalid probe

  // SubmitTrain with feedback disabled: administrative rejection, not a
  // counted drop, never retryable.
  PropertyQuery q;
  q.node = live[0].dst;
  q.time = live[0].time;
  q.class_label = 1;
  const IngestResult off = service.SubmitTrain(q);
  EXPECT_EQ(off.code(), IngestResult::kInvalid);
  EXPECT_EQ(service.Counters().train_dropped, 0u);

  service.Stop();
  EXPECT_EQ(service.IngestEdge(live[0]).code(), IngestResult::kStopped);
}

TEST_F(ServeServiceTest, ValidateNamesTheOffendingField) {
  const Dataset ds = MakeWarmup(800);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);

  {
    SplashServiceOptions o;
    o.microbatch_max_items = 0;
    const Status st = o.Validate();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("microbatch_max_items"), std::string::npos);
    // A misconfigured service refuses to start with the same error.
    SplashService svc(SmallModelOptions(), o);
    const Status start = svc.Start(ds, split, nullptr);
    EXPECT_FALSE(start.ok());
    EXPECT_EQ(start.message(), st.message());
    EXPECT_FALSE(svc.running());
  }
  {
    SplashServiceOptions o;
    o.queue_capacity = 0;
    EXPECT_NE(o.Validate().message().find("queue_capacity"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace splash
