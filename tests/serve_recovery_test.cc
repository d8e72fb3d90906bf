// Copyright 2026 The SPLASH Reproduction Authors.
//
// Recovery oracle of the durable serving layer (ISSUE 6):
//
//   crash at ANY point -> RecoverOrStart -> state is BIT-IDENTICAL to an
//   uninterrupted run truncated at the recovered watermark.
//
// "State" is the full predictor blob (SLIM params + Adam moments, neighbor
// rings + cursors, augmenter caches + degree counts, RNG stream position),
// compared byte-for-byte via SerializeState. The reference is built by
// replaying the WAL history (gc_wal_on_checkpoint=false keeps it complete)
// through a fresh predictor with the recorded micro-batch boundaries — the
// same contract serve_service_test pins for the live snapshot path.
//
// Crash points are exercised for real: each parameterized case forks a
// child, arms ONE compiled-in crash point (serve/fault_injection.h), and
// drives ingest until the child dies with _exit(137) exactly as kill -9
// would (no destructors, no flushes). The parent then recovers from the
// crashed data_dir and checks the oracle. Fork safety: a Fit starts no
// thread, and no SplashService runs in the parent when it forks (a
// service starts its one thread, the apply thread, at Start).

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/serialize.h"
#include "core/splash.h"
#include "datasets/synthetic.h"
#include "eval/trainer.h"
#include "serve/checkpoint.h"
#include "serve/fault_injection.h"
#include "serve/service.h"
#include "serve/wal.h"
#include "tests/serve_test_util.h"

namespace splash {
namespace {

/// Sentinel for "any recovered watermark is acceptable" (crash cases: the
/// crash lands at a point the test does not control exactly).
constexpr uint64_t kAnySeq = ~uint64_t{0};

class ServeRecoveryTest : public ::testing::Test {
 protected:
  // No service outlives its test, so the process is single-threaded
  // between services, which makes fork() safe.
  void SetUp() override { DisarmAllCrashPoints(); }
  void TearDown() override { DisarmAllCrashPoints(); }
};

Dataset MakeWarmup() {
  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 120;
  cfg.num_edges = 2400;
  cfg.num_communities = 3;
  cfg.intra_prob = 0.9;
  cfg.query_rate = 0.25;
  cfg.late_arrival_frac = 0.2;
  cfg.seed = 33;
  return GenerateSynthetic(cfg);
}

SplashOptions RecoveryModelOptions(float dropout = 0.0f) {
  SplashOptions opts;
  opts.mode = SplashMode::kForceStructural;  // no selection pass: fast
  opts.augment.feature_dim = 12;
  opts.slim.hidden_dim = 24;
  opts.slim.time_dim = 8;
  opts.slim.k_recent = 5;
  opts.slim.dropout = dropout;
  opts.seed = 7;
  return opts;
}

TrainerOptions SmallFit() {
  TrainerOptions fit;
  fit.epochs = 2;
  fit.batch_size = 64;
  fit.early_stopping = false;
  return fit;
}

SplashServiceOptions DurableOptions(const std::string& data_dir) {
  SplashServiceOptions opts;
  opts.microbatch_max_items = 24;
  opts.microbatch_max_delay_s = 0.0;  // apply as soon as anything is queued
  opts.queue_capacity = 256;
  opts.data_dir = data_dir;
  opts.wal_fsync = WalFsyncPolicy::kAlways;  // reach the before-fsync point
  opts.checkpoint_interval_batches = 4;
  opts.gc_wal_on_checkpoint = false;  // keep full history for the oracle
  return opts;
}

/// A read of a node no edge touches, after the warmup stream.
PropertyQuery ColdQuery(const Dataset& ds) {
  return PropertyQuery{static_cast<NodeId>(ds.stream.num_nodes() + 50),
                       ds.stream.max_time() + 1.0, 0};
}

std::vector<TemporalEdge> LiveEdges(const Dataset& ds,
                                    const ChronoSplit& split) {
  std::vector<TemporalEdge> live;
  for (size_t i = 0; i < ds.stream.size(); ++i) {
    if (ds.stream[i].time > split.val_end_time) live.push_back(ds.stream[i]);
  }
  return live;
}

/// Feeds `edges[begin, end)` with a labeled train submission every 7th
/// item (the online-learning traffic shape). A full queue blocks, so
/// nothing drops.
void FeedLive(SplashService* svc, const std::vector<TemporalEdge>& edges,
              size_t begin, size_t end) {
  for (size_t i = begin; i < end && i < edges.size(); ++i) {
    svc->IngestEdge(edges[i]);
    if (i % 7 == 3) {
      PropertyQuery q;
      q.node = edges[i].dst;
      q.time = edges[i].time;
      q.class_label = static_cast<int>(i % 3);
      svc->SubmitTrain(q);
    }
  }
}

/// Uninterrupted-run reference: fresh predictor through the identical
/// deterministic Prepare/Fit, then the recorded micro-batch sequence.
std::unique_ptr<SplashPredictor> MakeReference(
    const Dataset& ds, const ChronoSplit& split, const SplashOptions& model,
    const std::vector<WalRecord>& records, EdgeStream* ref_log) {
  auto ref = std::make_unique<SplashPredictor>(model);
  EXPECT_TRUE(ref->Prepare(ds, split).ok());
  TrainerOptions fit = SmallFit();
  StreamTrainer trainer(fit);
  trainer.Fit(ref.get(), ds, split);
  ref->SetTraining(false);
  ref->ResetState();

  *ref_log = EdgeStream();
  ref_log->EnsureNodeCapacity(ds.stream.num_nodes());
  for (const WalRecord& rec : records) {
    const size_t begin = ref_log->size();
    for (const TemporalEdge& e : rec.edges) {
      EXPECT_TRUE(ref_log->Append(e).ok());  // WAL stores post-clamp edges
    }
    ref->ObserveBulk(*ref_log, begin, ref_log->size());
    if (!rec.train.empty()) {
      ref->SetTraining(true);
      ref->StageBatch(rec.train);
      ref->TrainStaged();
      ref->SetTraining(false);
    }
  }
  return ref;
}

void ExpectStateBytesEqual(const SplashService& svc,
                           const SplashPredictor& ref, const char* what) {
  ByteWriter a;
  svc.SerializePredictorState(&a);
  ByteWriter b;
  ref.SerializeState(&b);
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.buffer().data(), b.buffer().data(), a.size()))
      << what;
}

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " element " << i;
  }
}

/// Recover in-process and run the full oracle against `data_dir`'s WAL
/// history: recovered predictor state bit-equals an uninterrupted replay,
/// the recovered ingest log matches edge for edge, and a probe query at
/// the recovered watermark bit-equals the reference's const query path.
/// The first query is a cold read (an untouched node, answered from the
/// rebuilt memo), bit-equal to the reference's computed read and, given
/// `pre_crash_cold`, to the service's last cold read before the crash.
void RecoverAndVerify(const std::string& data_dir, const SplashOptions& model,
                      uint64_t expect_seq,
                      const Matrix* pre_crash_cold = nullptr) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);

  // Reference FIRST: RecoverOrStart writes a recovery checkpoint and
  // rotates the WAL, so read the pre-recovery history before touching it —
  // with recovery's own walk, from batch 0 instead of a checkpoint cursor.
  const std::vector<WalRecord> history = WalHistory(data_dir);
  EdgeStream ref_log;
  auto ref = MakeReference(ds, split, model, history, &ref_log);

  SplashService svc(model, DurableOptions(data_dir));
  TrainerOptions fit = SmallFit();
  const Status st = svc.RecoverOrStart(ds, split, &fit);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(svc.recovered_seq(), ref_log.size());
  if (expect_seq != kAnySeq) {
    EXPECT_EQ(svc.recovered_seq(), expect_seq);
  }
  EXPECT_FALSE(svc.degraded());

  // One Adam step per training batch of the whole history, the replayed
  // tail included (the catch-up replica copies the weights and never
  // trains), none for the edge-only ones: on top of Fit's steps, as a
  // reference that replays no batch counts them.
  {
    EdgeStream fit_log;
    const auto fit_only = MakeReference(ds, split, model, {}, &fit_log);
    ByteWriter fit_bytes;
    fit_only->SerializeState(&fit_bytes);
    uint64_t train_batches = 0;
    for (const WalRecord& rec : history) {
      train_batches += rec.train.empty() ? 0 : 1;
    }
    EXPECT_EQ(ServiceAdamSteps(svc),
              ReadSlimAdamSteps(fit_bytes.buffer()) + train_batches)
        << "one Adam step per training batch";
  }

  // The recovered ingest log is the reference log, edge for edge.
  const EdgeStream& log = svc.ingest_log();
  ASSERT_EQ(log.size(), ref_log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(log[i].src, ref_log[i].src) << "edge " << i;
    ASSERT_EQ(log[i].dst, ref_log[i].dst) << "edge " << i;
    ASSERT_EQ(log[i].time, ref_log[i].time) << "edge " << i;
  }

  // Bit-exact predictor state: SLIM params, Adam moments, rings, degree
  // counts, RNG stream — everything SerializeState covers.
  ExpectStateBytesEqual(svc, *ref, "recovered state vs uninterrupted run");

  {
    ServeClient client(&svc);
    const PropertyQuery cold = ColdQuery(ds);
    ServeResponse resp;
    client.PredictNode(cold.node, cold.time, &resp);
    EXPECT_EQ(svc.Stats().counters.cold_reads, 1u) << "memo not rebuilt";
    SplashQueryScratch scratch;
    const Matrix& want = ref->PredictBatchConst({cold}, &scratch);
    EXPECT_FALSE(scratch.cold_read);
    ExpectBitEqual(want, resp.scores, "first cold read vs uninterrupted run");
    if (pre_crash_cold != nullptr) {
      ExpectBitEqual(*pre_crash_cold, resp.scores,
                     "first cold read vs the last one before the stop");
    }
  }

  // PR-4 watermark oracle, post-recovery: a query answered at the
  // recovered watermark is bit-identical to the reference's const path.
  {
    ServeClient client(&svc);
    const std::vector<PropertyQuery> probe(ds.queries.end() - 32,
                                           ds.queries.end());
    ServeResponse resp;
    client.Predict(probe, &resp);
    EXPECT_EQ(resp.watermark_seq, svc.recovered_seq());
    EXPECT_FALSE(resp.degraded);
    SplashQueryScratch scratch;
    const Matrix& want = ref->PredictBatchConst(probe, &scratch);
    ExpectBitEqual(want, resp.scores, "post-recovery probe");
  }
  svc.Stop();
}

// ---------------------------------------------------------------------------
// Clean-stop / no-crash recovery
// ---------------------------------------------------------------------------

TEST_F(ServeRecoveryTest, CleanStopThenRecoverIsBitExact) {
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 300u);

  ServeResponse cold;
  {
    SplashService svc(model, DurableOptions(dir.path()));
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    EXPECT_FALSE(svc.recovered_from_checkpoint());
    EXPECT_EQ(svc.recovered_seq(), 0u);
    FeedLive(&svc, live, 0, 300);
    svc.Flush();
    {
      ServeClient client(&svc);
      const PropertyQuery q = ColdQuery(ds);
      client.PredictNode(q.node, q.time, &cold);
    }
    svc.Stop();  // drains + final checkpoint
    const ServeStats stats = svc.Stats();
    EXPECT_EQ(stats.counters.ingest_accepted, 300u);
    EXPECT_GT(stats.counters.wal_records, 0u);
    EXPECT_GT(stats.counters.checkpoints_written, 0u);
    EXPECT_EQ(stats.counters.wal_io_errors, 0u);
    EXPECT_FALSE(stats.counters.degraded);
  }
  RecoverAndVerify(dir.path(), model, 300u, &cold.scores);
}

TEST_F(ServeRecoveryTest, RecoveryWithNoMidStreamCheckpointReplaysWholeWal) {
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);

  {
    SplashServiceOptions opts = DurableOptions(dir.path());
    opts.checkpoint_interval_batches = 0;  // never mid-stream
    SplashService svc(model, opts);
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    FeedLive(&svc, live, 0, 200);
    svc.Stop();
  }
  // Drop the stop checkpoint: the only one left is the one recovery wrote
  // at startup (seq 0), and every streamed batch lives in the WAL tail.
  ASSERT_EQ(::unlink(CheckpointPath(dir.path(), 200).c_str()), 0);
  RecoverAndVerify(dir.path(), model, 200u);
}

TEST_F(ServeRecoveryTest, EdgeOnlyWalReplayTrainsNothing) {
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 100u);

  SplashServiceOptions opts = DurableOptions(dir.path());
  opts.checkpoint_interval_batches = 0;  // every batch stays in the WAL
  uint64_t fit_steps = 0;
  {
    SplashService svc(model, opts);
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    fit_steps = ServiceAdamSteps(svc);
    for (size_t i = 0; i < 100; ++i) svc.IngestEdge(live[i]);  // no labels
    svc.Stop();
  }
  // Without the stop checkpoint, recovery replays all 100 edges.
  ASSERT_EQ(::unlink(CheckpointPath(dir.path(), 100).c_str()), 0);
  SplashService svc(model, opts);
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
  const ServeCounters c = svc.Stats().counters;
  EXPECT_EQ(c.recovered_seq, 100u);
  EXPECT_GT(c.recovery_replayed_batches, 0u);
  EXPECT_EQ(ServiceAdamSteps(svc), fit_steps)
      << "edge-only WAL replay stepped the optimizer";
  svc.Stop();
}

TEST_F(ServeRecoveryTest, ContinueAfterRecoveryStaysBitExact) {
  // The strongest stream-position check: run A, recover, run B, and the
  // final state must match one uninterrupted replay of A+B's recorded
  // batches. Dropout > 0 makes this fail loudly if the RNG stream or the
  // SLIM Adam step count came back wrong.
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions(/*dropout=*/0.15f);
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 400u);

  {
    SplashService svc(model, DurableOptions(dir.path()));
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    FeedLive(&svc, live, 0, 200);
    svc.Stop();
  }
  {
    SplashService svc(model, DurableOptions(dir.path()));
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    EXPECT_TRUE(svc.recovered_from_checkpoint());
    EXPECT_EQ(svc.recovered_seq(), 200u);
    FeedLive(&svc, live, 200, 400);
    svc.Stop();
  }
  RecoverAndVerify(dir.path(), model, 400u);
}

TEST_F(ServeRecoveryTest, WalHistoryGapRecoversDegraded) {
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);

  {
    SplashService svc(model, DurableOptions(dir.path()));
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    FeedLive(&svc, live, 0, 250);
    svc.Stop();
  }
  // Lose every checkpoint AND a mid-history WAL segment: replay must start
  // from zero, hit the hole, and stop there. The contract: come up serving
  // at the pre-gap watermark, flagged degraded — never a hang, a crash, or
  // a silently divergent state.
  const auto segs = ListWalSegments(dir.path());
  ASSERT_GE(segs.size(), 3u) << "expected several rotated segments";
  for (uint64_t seq = 0; seq <= 250; ++seq) {
    ::unlink(CheckpointPath(dir.path(), seq).c_str());
  }
  ASSERT_EQ(::unlink(segs[1].path.c_str()), 0);

  SplashService svc(model, DurableOptions(dir.path()));
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
  EXPECT_TRUE(svc.degraded());
  EXPECT_FALSE(svc.recovered_from_checkpoint());
  EXPECT_LT(svc.recovered_seq(), 250u);
  ServeClient client(&svc);
  ServeResponse resp;
  client.PredictNode(3, ds.stream.max_time(), &resp);
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.watermark_seq, svc.recovered_seq());
  const ServeStats stats = svc.Stats();
  EXPECT_TRUE(stats.counters.degraded);
  svc.Stop();
}

// ---------------------------------------------------------------------------
// Fallback checkpoint: with the WAL collected on every checkpoint (the
// service default), a corrupt newest checkpoint must fall back to its
// predecessor and replay forward to the same watermark and state bytes.
// ---------------------------------------------------------------------------

/// Runs 300 labeled live edges through a service with the default WAL
/// collection and a checkpoint every 4 batches, then Flush and Stop.
/// Returns the predictor state bytes after the Flush.
std::vector<uint8_t> RunCollectedHistory(const std::string& data_dir,
                                         const SplashOptions& model) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  EXPECT_GT(live.size(), 300u);
  SplashServiceOptions opts = DurableOptions(data_dir);
  opts.gc_wal_on_checkpoint = true;
  SplashService svc(model, opts);
  TrainerOptions fit = SmallFit();
  EXPECT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
  FeedLive(&svc, live, 0, 300);
  svc.Flush();
  ByteWriter state;
  svc.SerializePredictorState(&state);
  svc.Stop();
  EXPECT_GT(svc.Stats().counters.checkpoints_written, 4u);
  return state.buffer();
}

/// Flips one payload byte of the newest checkpoint (seq 300, the stop
/// checkpoint), so its CRC fails and the loader takes its predecessor.
/// Returns that predecessor.
CheckpointData CorruptNewestCheckpoint(const std::string& data_dir) {
  const std::string newest = CheckpointPath(data_dir, 300);
  std::vector<uint8_t> buf = ReadFile(newest);
  EXPECT_GT(buf.size(), 40u);
  buf[buf.size() / 2] ^= 0x10;
  FILE* f = std::fopen(newest.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  if (f != nullptr) {
    EXPECT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
  }
  CheckpointData fallback;
  bool found = false;
  EXPECT_TRUE(LoadLatestCheckpoint(data_dir, &fallback, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_LT(fallback.seq, 300u);
  return fallback;
}

TEST_F(ServeRecoveryTest, FallbackCheckpointReplaysCollectedWalToStopState) {
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions();
  const std::vector<uint8_t> want = RunCollectedHistory(dir.path(), model);
  CorruptNewestCheckpoint(dir.path());

  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  SplashService svc(model, DurableOptions(dir.path()));
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
  EXPECT_TRUE(svc.recovered_from_checkpoint());
  EXPECT_EQ(svc.recovered_seq(), 300u) << "the fallback lost its WAL";
  EXPECT_FALSE(svc.degraded());
  ByteWriter got;
  svc.SerializePredictorState(&got);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.buffer().data(), want.data(), want.size()))
      << "fallback replay state vs the state before the stop";
  svc.Stop();
}

TEST_F(ServeRecoveryTest, FallbackWithoutItsWalSegmentRecoversDegraded) {
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions();
  RunCollectedHistory(dir.path(), model);
  const CheckpointData fallback = CorruptNewestCheckpoint(dir.path());
  // The segment the fallback replays from is gone: recovery must say the
  // history past the fallback was lost instead of serving it as current.
  EXPECT_EQ(::unlink(WalSegmentPath(dir.path(), fallback.batches_applied)
                         .c_str()),
            0)
      << "retention dropped the fallback's segment";

  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  SplashService svc(model, DurableOptions(dir.path()));
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
  EXPECT_EQ(svc.recovered_seq(), fallback.seq);
  EXPECT_TRUE(svc.degraded());
  svc.Stop();
}

// ---------------------------------------------------------------------------
// Crash-point matrix: fork, arm, crash, recover, verify — for every
// compiled-in crash point.
// ---------------------------------------------------------------------------

struct CrashCase {
  CrashPoint point;
  uint32_t nth;
};

class ServeCrashPointTest : public ::testing::TestWithParam<CrashCase> {
 protected:
  void SetUp() override { DisarmAllCrashPoints(); }
  void TearDown() override { DisarmAllCrashPoints(); }
};

/// Child body: arm one point, run a durable service over the live stream.
/// Reaches the crash point and dies 137, or exits 0 (test then fails).
/// gtest-free on purpose: a forked child must not touch the parent's test
/// machinery, only _exit.
[[noreturn]] void RunCrashChild(const std::string& data_dir, CrashCase c) {
  ArmCrashPoint(c.point, c.nth);
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  SplashService svc(model, DurableOptions(data_dir));
  TrainerOptions fit = SmallFit();
  if (!svc.RecoverOrStart(ds, split, &fit).ok()) _exit(3);
  FeedLive(&svc, live, 0, live.size());
  svc.Stop();
  _exit(0);  // crash point never fired
}

/// Every file of `dir` by name, with its bytes.
std::vector<std::pair<std::string, std::vector<uint8_t>>> DirContents(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return files;
  while (const struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    files.emplace_back(name, ReadFile(dir + "/" + name));
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

// A data dir whose newest checkpoint holds another predictor state version
// is refused with a Status that names the dir, both versions and the
// remedy, and recovery changes, collects and adds nothing in the dir
// before it refuses.
TEST_F(ServeRecoveryTest, RefusesCheckpointOfAnotherStateVersionByName) {
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  {
    SplashService svc(model, DurableOptions(dir.path()));
    ASSERT_TRUE(svc.RecoverOrStart(ds, split).ok());
    FeedLive(&svc, live, 0, 100);
    svc.Stop();
  }
  // Rewrite the newest checkpoint with the state's version field (bytes
  // 4-7, after the magic) set to the previous format's.
  CheckpointData ckpt;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &ckpt, &found).ok());
  ASSERT_TRUE(found);
  ASSERT_EQ(SplashPredictor::ReadStateVersion(ckpt.predictor_state),
            SplashPredictor::kStateVersion);
  const uint32_t old_version = SplashPredictor::kStateVersion - 1;
  std::memcpy(ckpt.predictor_state.data() + 4, &old_version,
              sizeof(old_version));
  ASSERT_TRUE(WriteCheckpoint(dir.path(), ckpt.seq, ckpt.batches_applied,
                              ckpt.wm_time, ckpt.log, ckpt.node_seen,
                              ckpt.predictor_state)
                  .ok());
  const auto before = DirContents(dir.path());
  ASSERT_FALSE(before.empty());

  SplashService svc(model, DurableOptions(dir.path()));
  const Status st = svc.RecoverOrStart(ds, split);
  ASSERT_FALSE(st.ok());
  const std::string& msg = st.message();
  EXPECT_NE(msg.find(dir.path()), std::string::npos) << msg;
  EXPECT_NE(msg.find("version " + std::to_string(old_version)),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("version " +
                     std::to_string(SplashPredictor::kStateVersion)),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("move the data dir aside"), std::string::npos) << msg;
  EXPECT_TRUE(DirContents(dir.path()) == before)
      << "the refused recovery changed the data dir";
}

/// After a crash at kCheckpointMidWrite the one temp file holds the 20-byte
/// header and exactly payload_len / 2 payload bytes. Put in place under its
/// live name, as if the rename had happened, the loader passes over it to
/// the previous checkpoint; it stays there for recovery to pass over too.
void ExpectTornCheckpointPassedOver(const std::string& dir) {
  std::vector<std::string> tmps;
  DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (const struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.size() > 9 && name.compare(name.size() - 9, 9, ".ckpt.tmp") == 0) {
      tmps.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  ASSERT_EQ(tmps.size(), 1u);
  const std::string& tmp = tmps[0];

  const std::vector<uint8_t> torn = ReadFile(tmp);
  ASSERT_GE(torn.size(), 20u);
  ASSERT_EQ(std::memcmp(torn.data(), "SPLCKP1\n", 8), 0);
  const uint64_t payload_len = ByteReader(torn.data() + 8, 8).U64();
  EXPECT_EQ(torn.size(), 20 + payload_len / 2);

  const std::string live = tmp.substr(0, tmp.size() - 4);
  const uint64_t torn_seq = std::strtoull(
      live.substr(live.rfind("checkpoint-") + 11).c_str(), nullptr, 10);
  ASSERT_EQ(::rename(tmp.c_str(), live.c_str()), 0);
  CheckpointData data;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir, &data, &found).ok());
  ASSERT_TRUE(found) << "no checkpoint before the torn one";
  EXPECT_LT(data.seq, torn_seq);
}

TEST_P(ServeCrashPointTest, CrashRecoverBitExact) {
  const CrashCase c = GetParam();
  TempDir dir;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) RunCrashChild(dir.path(), c);  // never returns

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kCrashExitCode)
      << "crash point " << CrashPointName(c.point) << " never fired";

  if (c.point == CrashPoint::kCheckpointMidWrite) {
    ASSERT_NO_FATAL_FAILURE(ExpectTornCheckpointPassedOver(dir.path()));
  }
  // The child died mid-write somewhere on the durability path. Recovery
  // must land on a CRC-valid prefix and match the uninterrupted run.
  RecoverAndVerify(dir.path(), RecoveryModelOptions(), kAnySeq);
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, ServeCrashPointTest,
    ::testing::Values(
        // The startup recovery checkpoint is hit #1 for checkpoint points;
        // nth=2 crashes the first mid-stream checkpoint instead. WAL
        // points use mid-stream hit counts directly.
        CrashCase{CrashPoint::kWalAfterAppend, 9},
        CrashCase{CrashPoint::kWalBeforeFsync, 7},
        CrashCase{CrashPoint::kWalMidFrame, 6},
        CrashCase{CrashPoint::kCheckpointMidWrite, 2},
        CrashCase{CrashPoint::kCheckpointBeforeRename, 2},
        CrashCase{CrashPoint::kCheckpointAfterRename, 2}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      std::string name = CrashPointName(info.param.point);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace splash
