// Copyright 2026 The SPLASH Reproduction Authors.
//
// Contracts of the sharded serving tier (serve/router.h, ISSUE 8):
//   - ORACLE: every row of a routed response is bit-identical to a serial
//     replay of its owning shard's ingest log truncated at that shard's
//     composite-watermark entry — S shards, S independent replays — and
//     the same holds across a durable restart (per-shard RecoverOrStart);
//   - an S=1 routed service is bit-identical to the direct service (the
//     router adds a stamp, never a perturbation);
//   - composite watermarks are monotone per shard under concurrent ingest;
//   - cross-shard ScoreEdge equals the max of the endpoints' margins, each
//     computed on its owning shard's snapshot;
//   - killing one shard's data dir restarts that shard alone — its
//     sibling recovers bit-exact;
//   - ShardedSplashService::Stats() is an exact aggregate (counter sums,
//     bucket-wise histogram merges), and the redesigned admission/option
//     surfaces (IngestResult, Validate()) classify failures as promised.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/serialize.h"
#include "core/splash.h"
#include "datasets/synthetic.h"
#include "eval/trainer.h"
#include "runtime/thread_pool.h"
#include "serve/router.h"
#include "serve/service.h"
#include "tests/serve_test_util.h"

namespace splash {
namespace {

class ServeRouterTest : public ::testing::Test {
 protected:
  void SetUp() override { ThreadPool::SetGlobalThreads(1); }
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }
};

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
  fit.num_threads = 1;
  fit.pipeline_depth = 0;
  return fit;
}

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
/// prepare+fit every shard runs at Start.
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

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " element " << i;
  }
}

/// Reads the reference through the shards' own read path: the const
/// forward.
Matrix ReferenceScores(const SplashPredictor* ref,
                       const std::vector<PropertyQuery>& probe) {
  SplashQueryScratch scratch;
  return ref->PredictBatchConst(probe, &scratch);
}

ShardedServiceOptions RouterOptions(uint32_t num_shards) {
  ShardedServiceOptions opts;
  opts.num_shards = num_shards;
  opts.shard.microbatch_max_items = 64;
  opts.shard.microbatch_max_delay_s = 0.0005;
  opts.shard.train_on_ingest_labels = false;
  return opts;
}

std::vector<uint8_t> ShardStateBytes(const SplashService& shard) {
  ByteWriter w;
  shard.SerializePredictorState(&w);
  return w.buffer();
}

// ---------------------------------------------------------------------------
// S=1: the router is a stamp, not a perturbation.
// ---------------------------------------------------------------------------

TEST_F(ServeRouterTest, RoutedSingleShardBitIdenticalToDirectService) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  const std::vector<PropertyQuery> probe = ProbeQueries(ds, 40);
  TrainerOptions fit = SmallFit();

  SplashService direct(SmallModelOptions(), RouterOptions(1).shard);
  ASSERT_TRUE(direct.Start(ds, split, &fit).ok());
  ShardedSplashService routed(SmallModelOptions(), RouterOptions(1));
  ASSERT_TRUE(routed.Start(ds, split, &fit).ok());

  const size_t n = std::min<size_t>(live.size(), 500);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(direct.IngestEdge(live[i]).accepted());
    ASSERT_TRUE(routed.IngestEdge(live[i]).accepted());
  }
  direct.Flush();
  routed.Flush();

  ServeClient direct_client(&direct);
  RoutedClient routed_client(&routed);
  ServeResponse a;
  direct_client.Predict(probe, &a);
  ServeResponse b;
  routed_client.Predict(probe, &b);
  ExpectBitEqual(a.scores, b.scores, "routed S=1 vs direct");
  EXPECT_EQ(a.watermark_seq, b.watermark_seq);
  EXPECT_EQ(a.watermark_time, b.watermark_time);
  // The single service never stamps per-shard entries; the router always
  // stamps the shards that answered.
  EXPECT_TRUE(a.shard_watermarks.empty());
  ASSERT_EQ(b.shard_watermarks.size(), 1u);
  EXPECT_EQ(b.shard_watermarks[0].shard, 0u);
  EXPECT_EQ(b.shard_watermarks[0].seq, b.watermark_seq);
  EXPECT_EQ(routed.published_seq(), n);

  direct.Stop();
  routed.Stop();
}

// ---------------------------------------------------------------------------
// THE sharding oracle: S independent serial replays of the per-shard
// ingest logs truncated at the composite watermark reproduce every row.
// ---------------------------------------------------------------------------

TEST_F(ServeRouterTest, RoutedRowsBitIdenticalToPerShardSerialReplay) {
  const uint32_t kShards = 4;
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 400u);
  const std::vector<PropertyQuery> probe = ProbeQueries(ds, 40);
  TrainerOptions fit = SmallFit();

  ShardedSplashService router(SmallModelOptions(), RouterOptions(kShards));
  ASSERT_TRUE(router.Start(ds, split, &fit).ok());
  ASSERT_TRUE(router.running());

  std::vector<uint64_t> expect_per_shard(kShards, 0);
  const size_t n = std::min<size_t>(live.size(), 600);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(router.IngestEdge(live[i]).accepted());
    ++expect_per_shard[router.ShardOf(live[i].dst)];
  }
  router.Flush();

  RoutedClient client(&router);
  ServeResponse resp;
  client.Predict(probe, &resp);

  // The probe must actually fan out for this test to mean anything.
  bool mixed = false;
  for (const PropertyQuery& q : probe) {
    mixed = mixed || router.ShardOf(q.node) != router.ShardOf(probe[0].node);
  }
  ASSERT_TRUE(mixed) << "probe landed on one shard; widen it";

  // Composite stamp: one entry per contacted shard, ascending by shard id,
  // each equal to that shard's full ingest count (Flush published
  // everything); the scalars summarize the entries (min seq / max time).
  ASSERT_FALSE(resp.shard_watermarks.empty());
  uint64_t min_seq = ~uint64_t{0};
  double max_time = 0.0;
  for (size_t i = 0; i < resp.shard_watermarks.size(); ++i) {
    const ShardWatermark& sw = resp.shard_watermarks[i];
    if (i > 0) {
      EXPECT_GT(sw.shard, resp.shard_watermarks[i - 1].shard);
    }
    EXPECT_EQ(sw.seq, expect_per_shard[sw.shard]);
    min_seq = std::min(min_seq, sw.seq);
    max_time = std::max(max_time, sw.time);
  }
  EXPECT_EQ(resp.watermark_seq, min_seq);
  EXPECT_EQ(resp.watermark_time, max_time);

  // The backend-level composite covers every shard and sums to the total.
  const CompositeWatermark wm = router.Watermark();
  ASSERT_EQ(wm.shards.size(), kShards);
  EXPECT_EQ(wm.total_seq, n);
  EXPECT_EQ(router.published_seq(), n);

  // S independent serial replays: shard s's reference replays shard s's
  // ingest log (the post-clamp ground truth) truncated at its watermark
  // entry, then scores the probe rows shard s owns. Bit-identity per row.
  for (const ShardWatermark& sw : resp.shard_watermarks) {
    const SplashService& shard = router.shard(sw.shard);
    const EdgeStream& log = shard.ingest_log();
    ASSERT_EQ(log.size(), sw.seq);
    auto ref = MakeReference(ds, split);
    for (size_t i = 0; i < sw.seq; ++i) ref->ObserveEdge(log[i], i);

    std::vector<PropertyQuery> sub;
    std::vector<size_t> rows;
    for (size_t i = 0; i < probe.size(); ++i) {
      if (router.ShardOf(probe[i].node) == sw.shard) {
        sub.push_back(probe[i]);
        rows.push_back(i);
      }
    }
    ASSERT_FALSE(sub.empty());
    const Matrix want = ReferenceScores(ref.get(), sub);
    ASSERT_EQ(want.rows(), rows.size());
    ASSERT_EQ(want.cols(), resp.scores.cols());
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < want.cols(); ++c) {
        ASSERT_EQ(want(r, c), resp.scores(rows[r], c))
            << "shard " << sw.shard << " probe row " << rows[r];
      }
    }
  }
  router.Stop();
}

// ---------------------------------------------------------------------------
// Durable restart: per-shard RecoverOrStart reproduces every shard's
// predictor state byte-for-byte and answers queries bit-identically.
// ---------------------------------------------------------------------------

TEST_F(ServeRouterTest, DurableRestartRecoversEveryShardBitExact) {
  const uint32_t kShards = 2;
  TempDir dir;
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  const std::vector<PropertyQuery> probe = ProbeQueries(ds, 24);
  TrainerOptions fit = SmallFit();

  ShardedServiceOptions opts = RouterOptions(kShards);
  opts.shard.data_dir = dir.path() + "/svc";

  std::vector<std::vector<uint8_t>> want_state(kShards);
  std::vector<uint64_t> want_seq(kShards, 0);
  Matrix want_scores;
  size_t n = 0;
  {
    ShardedSplashService router(SmallModelOptions(), opts);
    ASSERT_TRUE(router.RecoverOrStart(ds, split, &fit).ok());
    n = std::min<size_t>(live.size(), 500);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(router.IngestEdge(live[i]).accepted());
    }
    router.Flush();
    RoutedClient client(&router);
    ServeResponse want;
    client.Predict(probe, &want);
    want_scores = want.scores;
    router.Stop();  // checkpoint_on_stop: each shard persists its tail
    for (uint32_t s = 0; s < kShards; ++s) {
      want_state[s] = ShardStateBytes(router.shard(s));
      want_seq[s] = router.shard(s).ingest_log().size();
      ASSERT_GT(want_seq[s], 0u) << s;
    }
  }

  ShardedSplashService restarted(SmallModelOptions(), opts);
  ASSERT_TRUE(restarted.RecoverOrStart(ds, split, &fit).ok());
  EXPECT_FALSE(restarted.degraded());
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(restarted.shard(s).recovered_seq(), want_seq[s]) << s;
    EXPECT_TRUE(restarted.shard(s).recovered_from_checkpoint()) << s;
    const std::vector<uint8_t> got = ShardStateBytes(restarted.shard(s));
    ASSERT_EQ(got.size(), want_state[s].size()) << s;
    EXPECT_EQ(0, std::memcmp(got.data(), want_state[s].data(), got.size()))
        << "shard " << s << " state differs after restart";
  }
  EXPECT_EQ(restarted.published_seq(), n);

  RoutedClient client(&restarted);
  ServeResponse resp;
  client.Predict(probe, &resp);
  ExpectBitEqual(want_scores, resp.scores, "routed response after restart");
  restarted.Stop();
}

// ---------------------------------------------------------------------------
// Partial failure: losing one shard's directory restarts that shard fresh
// and leaves its sibling bit-exact.
// ---------------------------------------------------------------------------

TEST_F(ServeRouterTest, KillingOneShardDataDirRestartsThatShardAlone) {
  const uint32_t kShards = 2;
  TempDir dir;
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  TrainerOptions fit = SmallFit();

  ShardedServiceOptions opts = RouterOptions(kShards);
  opts.shard.data_dir = dir.path() + "/svc";

  std::vector<uint8_t> want_state0;
  uint64_t want_seq0 = 0;
  {
    ShardedSplashService router(SmallModelOptions(), opts);
    ASSERT_TRUE(router.RecoverOrStart(ds, split, &fit).ok());
    const size_t n = std::min<size_t>(live.size(), 400);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(router.IngestEdge(live[i]).accepted());
    }
    router.Flush();
    router.Stop();
    want_state0 = ShardStateBytes(router.shard(0));
    want_seq0 = router.shard(0).ingest_log().size();
    ASSERT_GT(want_seq0, 0u);
    ASSERT_GT(router.shard(1).ingest_log().size(), 0u);
  }

  // Kill shard 1's entire history (checkpoints + WAL).
  const std::string cmd = "rm -rf '" + opts.shard.data_dir + "/shard-1'";
  ASSERT_EQ(0, std::system(cmd.c_str()));

  ShardedSplashService restarted(SmallModelOptions(), opts);
  ASSERT_TRUE(restarted.RecoverOrStart(ds, split, &fit).ok());
  // Shard 1: fresh start from the deterministic Prepare/Fit, watermark 0.
  EXPECT_EQ(restarted.shard(1).recovered_seq(), 0u);
  EXPECT_FALSE(restarted.shard(1).recovered_from_checkpoint());
  // Shard 0: bit-exact, untouched by its sibling's loss.
  EXPECT_EQ(restarted.shard(0).recovered_seq(), want_seq0);
  const std::vector<uint8_t> got0 = ShardStateBytes(restarted.shard(0));
  ASSERT_EQ(got0.size(), want_state0.size());
  EXPECT_EQ(0, std::memcmp(got0.data(), want_state0.data(), got0.size()));

  const CompositeWatermark wm = restarted.Watermark();
  ASSERT_EQ(wm.shards.size(), kShards);
  EXPECT_EQ(wm.shards[0].seq, want_seq0);
  EXPECT_EQ(wm.shards[1].seq, 0u);
  EXPECT_EQ(wm.min_seq, 0u);
  EXPECT_EQ(wm.total_seq, want_seq0);
  restarted.Stop();
}

// ---------------------------------------------------------------------------
// Composite watermark monotonicity per shard under concurrent ingest.
// ---------------------------------------------------------------------------

TEST_F(ServeRouterTest, CompositeWatermarkMonotonePerShardUnderIngest) {
  const uint32_t kShards = 2;
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  const std::vector<PropertyQuery> probe = ProbeQueries(ds, 16);
  TrainerOptions fit = SmallFit();

  ShardedServiceOptions opts = RouterOptions(kShards);
  opts.shard.microbatch_max_items = 16;
  ShardedSplashService router(SmallModelOptions(), opts);
  ASSERT_TRUE(router.Start(ds, split, &fit).ok());

  std::atomic<bool> done{false};
  std::thread producer([&] {
    RoutedClient ingest_client(&router);
    for (const TemporalEdge& e : live) ingest_client.IngestEdgeWithRetry(e);
    done.store(true, std::memory_order_release);
  });

  RoutedClient client(&router);
  ServeResponse resp;
  std::vector<uint64_t> last(kShards, 0);
  uint64_t last_total = 0;
  while (!done.load(std::memory_order_acquire)) {
    client.Predict(probe, &resp);
    for (const ShardWatermark& sw : resp.shard_watermarks) {
      ASSERT_LT(sw.shard, kShards);
      EXPECT_GE(sw.seq, last[sw.shard])
          << "shard " << sw.shard << " watermark went backwards";
      last[sw.shard] = sw.seq;
    }
    // The backend-level composite is monotone in total too.
    const CompositeWatermark wm = router.Watermark();
    EXPECT_GE(wm.total_seq, last_total);
    last_total = wm.total_seq;
  }
  producer.join();
  router.Flush();
  client.Predict(probe, &resp);
  for (const ShardWatermark& sw : resp.shard_watermarks) {
    EXPECT_EQ(sw.seq, router.shard(sw.shard).ingest_log().size());
  }
  router.Stop();
}

// ---------------------------------------------------------------------------
// Cross-shard ScoreEdge: max of the endpoints' margins, each computed on
// its owning shard's snapshot.
// ---------------------------------------------------------------------------

TEST_F(ServeRouterTest, CrossShardScoreEdgeMatchesEndpointMargins) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  TrainerOptions fit = SmallFit();

  ShardedSplashService router(SmallModelOptions(), RouterOptions(2));
  ASSERT_TRUE(router.Start(ds, split, &fit).ok());
  const size_t n = std::min<size_t>(live.size(), 300);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(router.IngestEdge(live[i]).accepted());
  }
  router.Flush();

  RoutedClient client(&router);
  const double t = live[n - 1].time;
  // Node 4 -> shard 0, node 7 -> shard 1: a guaranteed cross-shard edge.
  const NodeId a = 4, b = 7;
  ASSERT_NE(router.ShardOf(a), router.ShardOf(b));

  ServeResponse edge;
  client.ScoreEdge(a, b, t, &edge);
  ASSERT_EQ(edge.scores.rows(), 2u);
  ASSERT_EQ(edge.shard_watermarks.size(), 2u);
  ServeResponse ma;
  client.PredictNode(a, t, &ma);
  ServeResponse mb;
  client.PredictNode(b, t, &mb);
  // Quiesced, so the endpoint snapshots cannot move between calls: the
  // edge rows equal the single-node rows bit-for-bit and the edge score
  // is exactly the max of the endpoint margins.
  ASSERT_EQ(ma.scores.cols(), edge.scores.cols());
  for (size_t c = 0; c < edge.scores.cols(); ++c) {
    EXPECT_EQ(edge.scores(0, c), ma.scores(0, c)) << "src row col " << c;
    EXPECT_EQ(edge.scores(1, c), mb.scores(0, c)) << "dst row col " << c;
  }
  EXPECT_EQ(edge.score, std::max(ma.score, mb.score));
  // The single-node calls route to one shard each: 1-entry stamps.
  ASSERT_EQ(ma.shard_watermarks.size(), 1u);
  EXPECT_EQ(ma.shard_watermarks[0].shard, router.ShardOf(a));
  ASSERT_EQ(mb.shard_watermarks.size(), 1u);
  EXPECT_EQ(mb.shard_watermarks[0].shard, router.ShardOf(b));
  router.Stop();
}

// ---------------------------------------------------------------------------
// Stats aggregation is exact.
// ---------------------------------------------------------------------------

TEST_F(ServeRouterTest, MergedStatsAreExactAggregates) {
  const uint32_t kShards = 4;
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  const std::vector<PropertyQuery> probe = ProbeQueries(ds, 32);
  TrainerOptions fit = SmallFit();

  ShardedSplashService router(SmallModelOptions(), RouterOptions(kShards));
  ASSERT_TRUE(router.Start(ds, split, &fit).ok());
  const size_t n = std::min<size_t>(live.size(), 500);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(router.IngestEdge(live[i]).accepted());
  }
  router.Flush();
  {
    RoutedClient client(&router);
    ServeResponse resp;
    for (int i = 0; i < 20; ++i) client.Predict(probe, &resp);
    // Three cold reads (untouched nodes) on three shards.
    for (NodeId v = 1; v <= 3; ++v) {
      client.PredictNode(static_cast<NodeId>(ds.stream.num_nodes()) + v,
                         ds.stream.max_time(), &resp);
    }
  }  // ~ the departed client's 23 samples fold into the retired digest
  router.Stop();

  const ServeStats merged = router.Stats();
  ServeCounters sum;
  uint64_t apply_count = 0, ingest_count = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    const ServeCounters c = router.shard(s).Counters();
    EXPECT_GT(c.ingest_accepted, 0u) << s;
    sum.MergeFrom(c);
    const ServeStats ss = router.shard(s).Stats();
    apply_count += ss.apply.count;
    ingest_count += ss.ingest.count;
  }
  EXPECT_EQ(merged.counters.ingest_accepted, n);
  EXPECT_EQ(merged.counters.ingest_accepted, sum.ingest_accepted);
  EXPECT_EQ(merged.counters.ingest_dropped, sum.ingest_dropped);
  EXPECT_EQ(merged.counters.queries, sum.queries);
  EXPECT_GT(merged.counters.queries, 0u);
  EXPECT_EQ(merged.counters.cold_reads, sum.cold_reads);
  EXPECT_EQ(merged.counters.cold_reads, 3u);
  EXPECT_EQ(merged.counters.batches_applied, sum.batches_applied);
  EXPECT_EQ(merged.counters.published_seq, n);  // SUM over shards
  EXPECT_EQ(merged.counters.novel_ingest_nodes, sum.novel_ingest_nodes);
  EXPECT_EQ(merged.counters.time_regressions, sum.time_regressions);
  EXPECT_EQ(merged.counters.queue_high_watermark, sum.queue_high_watermark);
  // Histogram merges are exact: merged endpoint counts are the sums over
  // shards, and the router-attached client's predict samples all land in
  // the merged digest (one sample per Predict call).
  EXPECT_EQ(merged.apply.count, apply_count);
  EXPECT_EQ(merged.ingest.count, ingest_count);
  EXPECT_EQ(merged.predict.count, 23u);
}

// ---------------------------------------------------------------------------
// IngestResult classification + Validate() field naming (API redesign).
// ---------------------------------------------------------------------------

TEST_F(ServeRouterTest, IngestResultClassifiesRejections) {
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

TEST_F(ServeRouterTest, ValidateNamesTheOffendingField) {
  const Dataset ds = MakeWarmup(800);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);

  {
    SplashServiceOptions o;
    o.coalesce_max_batch = 64;
    o.coalesce_ring_slots = 8;
    const Status st = o.Validate();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("coalesce_ring_slots"), std::string::npos);
    // A misconfigured service refuses to start with the same error.
    SplashService svc(SmallModelOptions(), o);
    EXPECT_FALSE(svc.Start(ds, split, nullptr).ok());
    EXPECT_FALSE(svc.running());
  }
  {
    SplashServiceOptions o;
    o.microbatch_max_items = 0;
    EXPECT_NE(o.Validate().message().find("microbatch_max_items"),
              std::string::npos);
  }
  {
    SplashServiceOptions o;
    o.queue_capacity = 0;
    EXPECT_NE(o.Validate().message().find("queue_capacity"),
              std::string::npos);
  }
  {
    ShardedServiceOptions o;
    o.num_shards = 3;  // not a power of two
    const Status st = o.Validate();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("num_shards"), std::string::npos);
    ShardedSplashService router(SmallModelOptions(), o);
    EXPECT_FALSE(router.Start(ds, split, nullptr).ok());
    EXPECT_FALSE(router.running());
  }
  {
    // The router surfaces per-shard option errors too.
    ShardedServiceOptions o;
    o.num_shards = 2;
    o.shard.queue_capacity = 0;
    EXPECT_FALSE(o.Validate().ok());
    ShardedSplashService router(SmallModelOptions(), o);
    const Status st = router.Start(ds, split, nullptr);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("queue_capacity"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Train feedback routes to the owning shard.
// ---------------------------------------------------------------------------

TEST_F(ServeRouterTest, TrainFeedbackRoutesToOwningShard) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  TrainerOptions fit = SmallFit();

  ShardedServiceOptions opts = RouterOptions(2);
  opts.shard.train_on_ingest_labels = true;
  ShardedSplashService router(SmallModelOptions(), opts);
  ASSERT_TRUE(router.Start(ds, split, &fit).ok());

  const size_t n = std::min<size_t>(live.size(), 300);
  size_t labels = 0;
  size_t labels_to_shard1 = 0;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(router.IngestEdge(live[i]).accepted());
    if (i % 5 == 4) {
      PropertyQuery q;
      q.node = live[i].dst;
      q.time = live[i].time;
      q.class_label = static_cast<int>(i % 3);
      ASSERT_TRUE(router.SubmitTrain(q).accepted());
      ++labels;
      if (router.ShardOf(q.node) == 1) ++labels_to_shard1;
    }
  }
  router.Flush();
  router.Stop();

  const ServeCounters c0 = router.shard(0).Counters();
  const ServeCounters c1 = router.shard(1).Counters();
  EXPECT_EQ(c1.train_accepted, labels_to_shard1);
  EXPECT_EQ(c0.train_accepted + c1.train_accepted, labels);
  EXPECT_GT(c0.train_steps, 0u);
  EXPECT_GT(c1.train_steps, 0u);
  // Every ingested edge landed on its destination's shard, nothing else.
  size_t to_shard1 = 0;
  for (size_t i = 0; i < n; ++i) to_shard1 += router.ShardOf(live[i].dst);
  EXPECT_EQ(router.shard(1).ingest_log().size(), to_shard1);
  EXPECT_EQ(router.shard(0).ingest_log().size(), n - to_shard1);
}

}  // namespace
}  // namespace splash
