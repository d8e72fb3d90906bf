// Copyright 2026 The SPLASH Reproduction Authors.
//
// Contracts of the read-path query coalescer (DESIGN.md §5b):
//   - PROTOCOL: the flat-combining QueryCoalescer bypasses when
//     uncontended, groups contended callers FIFO up to max_batch, answers
//     every slot exactly once, and falls back to the direct path when the
//     ring is full — pinned with deterministic unit tests that drive the
//     leader through a controlled execute callback;
//   - ORACLE: a coalesced answer is bit-identical to the per-query path on
//     the same snapshot, for every caller in the group, including groups
//     mixing different batch shapes (the scatter offsets);
//   - every response's watermark is a real published snapshot (an
//     applied-batch boundary the WAL recorded), even under concurrent
//     ingest;
//   - an expired deadline is answered late-but-flagged, never lost;
//   - the single-caller bypass stays allocation-free at steady state
//     (counting-allocator gate over the into-variant API);
//   - a TSan-able stress mix of producers and mixed-endpoint readers stays
//     self-consistent (every Predict call is exactly one direct or
//     coalesced completion).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "core/splash.h"
#include "datasets/synthetic.h"
#include "eval/trainer.h"
#include "runtime/thread_pool.h"
#include "serve/coalescer.h"
#include "serve/service.h"
#include "tests/serve_test_util.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_alloc_count{0};

void* CountedAlloc(size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace splash {
namespace {

/// Allocations observed while running `fn`.
template <typename Fn>
size_t CountAllocations(const Fn& fn) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  fn();
  g_counting.store(false, std::memory_order_seq_cst);
  return g_alloc_count.load(std::memory_order_relaxed);
}

class ServeCoalesceTest : public ::testing::Test {
 protected:
  void SetUp() override { ThreadPool::SetGlobalThreads(1); }
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }
};

Dataset MakeWarmup(size_t num_edges = 2000) {
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
  fit.epochs = 1;
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

bool BitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != b(i, j)) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// QueryCoalescer protocol unit tests: the execute callback is a controlled
// test double, so grouping decisions are driven deterministically instead
// of hoping the OS scheduler overlaps callers.
// ---------------------------------------------------------------------------

struct ExecRecorder {
  std::mutex mu;
  std::condition_variable cv;
  bool block_first_call = false;
  bool released = false;
  bool first_call_seen = false;
  std::vector<size_t> group_sizes;

  static void Run(void* ctx, QuerySlot* const* slots, size_t n) {
    auto* r = static_cast<ExecRecorder*>(ctx);
    {
      std::unique_lock<std::mutex> lk(r->mu);
      r->group_sizes.push_back(n);
      const bool first = !r->first_call_seen;
      r->first_call_seen = true;
      r->cv.notify_all();
      if (first && r->block_first_call) {
        // Watchdog: a bounded wait turns a test-sequencing bug into a
        // visible assertion failure instead of a hang.
        r->cv.wait_for(lk, std::chrono::seconds(5),
                       [r] { return r->released; });
      }
    }
    for (size_t i = 0; i < n; ++i) {
      slots[i]->resp->watermark_seq = 42;  // "answered by a group" marker
    }
  }

  void WaitFirstCall() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] { return first_call_seen; });
  }
  void Release() {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
    cv.notify_all();
  }
};

TEST_F(ServeCoalesceTest, CoalescerSingleCallerBypasses) {
  ExecRecorder rec;
  CoalesceOptions opts;
  opts.max_batch = 8;
  QueryCoalescer c(opts, &ExecRecorder::Run, &rec);

  std::vector<PropertyQuery> q(1);
  ServeResponse resp;
  QuerySlot slot;
  slot.queries = &q;
  slot.resp = &resp;
  for (int i = 0; i < 3; ++i) {
    slot.done.store(false);
    EXPECT_FALSE(c.Submit(&slot)) << "lone caller must take the direct path";
    c.EndDirect();
  }
  EXPECT_EQ(c.direct_calls(), 3u);
  EXPECT_EQ(c.groups(), 0u);
  EXPECT_EQ(c.coalesced_callers(), 0u);
  EXPECT_TRUE(rec.group_sizes.empty());
}

TEST_F(ServeCoalesceTest, CoalescerMaxBatchOneDisablesEvenUnderContention) {
  ExecRecorder rec;
  CoalesceOptions opts;
  opts.max_batch = 1;  // disabled
  QueryCoalescer c(opts, &ExecRecorder::Run, &rec);

  std::vector<PropertyQuery> q(1);
  ServeResponse ra, rb;
  QuerySlot a, b;
  a.queries = &q;
  a.resp = &ra;
  b.queries = &q;
  b.resp = &rb;
  ASSERT_FALSE(c.Submit(&a));  // holds inflight: contention exists
  EXPECT_FALSE(c.Submit(&b)) << "max_batch <= 1 must never enqueue";
  c.EndDirect();
  c.EndDirect();
  EXPECT_EQ(c.direct_calls(), 2u);
  EXPECT_EQ(c.groups(), 0u);
}

TEST_F(ServeCoalesceTest, CoalescerGroupsContendedCallersIntoOneBatch) {
  constexpr size_t kCallers = 6;
  ExecRecorder rec;
  CoalesceOptions opts;
  opts.max_batch = kCallers;
  // Generous window: the leader waits for the full batch (breaks the
  // instant the ring holds max_batch), so thread-start jitter cannot split
  // the group. Actual wait is only until the last caller enqueues.
  opts.max_linger_s = 2.0;
  opts.ring_slots = 16;
  QueryCoalescer c(opts, &ExecRecorder::Run, &rec);

  // A held direct call supplies the contention that routes the threads
  // into the ring instead of the bypass.
  std::vector<PropertyQuery> q(1);
  ServeResponse hold_resp;
  QuerySlot hold;
  hold.queries = &q;
  hold.resp = &hold_resp;
  ASSERT_FALSE(c.Submit(&hold));

  std::vector<ServeResponse> resps(kCallers);
  std::vector<QuerySlot> slots(kCallers);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kCallers; ++i) {
    slots[i].queries = &q;
    slots[i].resp = &resps[i];
  }
  for (size_t i = 0; i < kCallers; ++i) {
    threads.emplace_back([&c, &slots, i] {
      EXPECT_TRUE(c.Submit(&slots[i]))
          << "contended caller must be answered by a group";
    });
  }
  for (auto& t : threads) t.join();
  c.EndDirect();

  EXPECT_EQ(c.groups(), 1u) << "full-batch linger must yield ONE group";
  EXPECT_EQ(c.coalesced_callers(), kCallers);
  EXPECT_EQ(c.direct_calls(), 1u);  // only the holder
  ASSERT_EQ(rec.group_sizes.size(), 1u);
  EXPECT_EQ(rec.group_sizes[0], kCallers);
  for (size_t i = 0; i < kCallers; ++i) {
    EXPECT_EQ(resps[i].watermark_seq, 42u) << "slot " << i << " unanswered";
  }
}

TEST_F(ServeCoalesceTest, CoalescerFullRingFallsBackToDirect) {
  ExecRecorder rec;
  rec.block_first_call = true;
  CoalesceOptions opts;
  opts.max_batch = 2;
  opts.max_linger_s = 0.0;  // leader pops immediately, then blocks in exec
  opts.ring_slots = 2;
  QueryCoalescer c(opts, &ExecRecorder::Run, &rec);

  std::vector<PropertyQuery> q(1);
  ServeResponse hold_resp;
  QuerySlot hold;
  hold.queries = &q;
  hold.resp = &hold_resp;
  ASSERT_FALSE(c.Submit(&hold));  // contention source

  // Leader thread: enqueues, pops its own slot (linger 0, ring otherwise
  // empty), and blocks inside the execute callback.
  std::vector<ServeResponse> resps(3);
  std::vector<QuerySlot> slots(3);
  for (size_t i = 0; i < 3; ++i) {
    slots[i].queries = &q;
    slots[i].resp = &resps[i];
  }
  std::thread leader([&] { EXPECT_TRUE(c.Submit(&slots[0])); });
  rec.WaitFirstCall();  // leader now blocked; ring empty again

  // Two followers fill the ring while the leader is stuck.
  std::atomic<int> entered{0};
  std::thread f1([&] {
    entered.fetch_add(1);
    EXPECT_TRUE(c.Submit(&slots[1]));
  });
  std::thread f2([&] {
    entered.fetch_add(1);
    EXPECT_TRUE(c.Submit(&slots[2]));
  });
  while (entered.load() < 2) std::this_thread::yield();
  // Between the signal and the ring push there is one fetch_add and one
  // mutex lock; this grace is orders of magnitude beyond it.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // The ring is full: the next contended caller must fall back, not block.
  ServeResponse over_resp;
  QuerySlot over;
  over.queries = &q;
  over.resp = &over_resp;
  EXPECT_FALSE(c.Submit(&over)) << "full ring must fall back to direct";
  EXPECT_EQ(c.ring_full_fallbacks(), 1u);
  c.EndDirect();  // the fallback call
  c.EndDirect();  // the holder

  rec.Release();
  leader.join();
  f1.join();
  f2.join();
  EXPECT_EQ(c.groups(), 2u);  // [leader alone] + [two followers]
  EXPECT_EQ(c.coalesced_callers(), 3u);
  EXPECT_EQ(c.direct_calls(), 2u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(resps[i].watermark_seq, 42u) << "slot " << i << " unanswered";
  }
}

// ---------------------------------------------------------------------------
// Service-level contracts.
// ---------------------------------------------------------------------------

TEST_F(ServeCoalesceTest, CoalescedBitIdenticalToPerQueryPathMixedShapes) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 300u);

  SplashServiceOptions sopts;
  sopts.microbatch_max_items = 64;
  sopts.microbatch_max_delay_s = 0.0005;
  sopts.train_on_ingest_labels = false;
  // A long gather window maximizes grouping on an oversubscribed host.
  sopts.coalesce_max_linger_s = 0.002;
  SplashService service(SmallModelOptions(), sopts);
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(service.Start(ds, split, &fit).ok());
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(service.IngestEdge(live[i]).accepted());
  }
  service.Flush();

  // Per-thread probe slices of DIFFERENT sizes: a mixed group exercises
  // the scatter offsets, not just same-shape fan-out. Every slice also
  // ends with the stream's last query, whose node the fit never saw, so
  // each caller in a group carries an unseen node for the counter check.
  constexpr size_t kThreads = 6;
  std::vector<std::vector<PropertyQuery>> slices(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    slices[t].assign(ds.queries.end() - 3 * t - (t + 1),
                     ds.queries.end() - 3 * t);
    if (t > 0) slices[t].push_back(ds.queries.back());
  }

  // Reference answers via the quiescent (bypassing) per-query path. The
  // read body's counters move by exactly the rows each call scored, and
  // the unseen nodes among them; the coalesced bursts below must count
  // the same per pass over the slices.
  std::vector<Matrix> want(kThreads);
  uint64_t want_wm = 0;
  uint64_t slice_rows = 0, unseen_per_pass = 0;
  {
    ServeClient ref_client(&service);
    for (size_t t = 0; t < kThreads; ++t) {
      const ServeCounters pre = service.Counters();
      ServeResponse r;
      ref_client.Predict(slices[t], &r);
      const ServeCounters post = service.Counters();
      EXPECT_EQ(post.queries - pre.queries, slices[t].size());
      const uint64_t unseen =
          post.unseen_node_queries - pre.unseen_node_queries;
      EXPECT_GT(unseen, 0u) << "slice " << t << " has no unseen node";
      slice_rows += slices[t].size();
      unseen_per_pass += unseen;
      EXPECT_FALSE(r.degraded);
      want[t] = r.scores;
      want_wm = r.watermark_seq;
    }
    EXPECT_EQ(want_wm, 300u);
  }
  const ServeCounters direct = service.Counters();

  // Concurrent bursts until grouping was observed. Grouping needs one
  // caller PREEMPTED mid-query so another observes it in flight; on a
  // 1-core host that is an involuntary context switch, so each thread's
  // loop must outlast a scheduler quantum (~1ms) — with too few iters a
  // thread can finish its whole loop without ever being preempted and a
  // burst coalesces nothing.
  constexpr uint64_t kIters = 100;
  const uint64_t base_coalesced = direct.coalesced_callers;
  uint64_t rounds = 0;
  while (rounds < 40) {
    ++rounds;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&service, &slices, &want, t, want_wm] {
        ServeClient client(&service);
        ServeResponse resp;
        for (uint64_t iter = 0; iter < kIters; ++iter) {
          client.Predict(slices[t], &resp);
          EXPECT_EQ(resp.watermark_seq, want_wm);
          EXPECT_FALSE(resp.degraded);
          EXPECT_TRUE(BitEqual(want[t], resp.scores))
              << "thread " << t << " iter " << iter
              << ": coalesced answer diverged from the per-query path";
        }
      });
    }
    for (auto& t : threads) t.join();
    if (service.Stats().counters.coalesced_callers > base_coalesced) break;
  }
  service.Stop();

  const ServeCounters cnt = service.Stats().counters;
  EXPECT_GT(cnt.coalesced_callers, base_coalesced)
      << "no call was ever coalesced across 40 contended bursts";
  EXPECT_GT(cnt.coalesced_groups, 0u);
  EXPECT_EQ(cnt.queries - direct.queries, rounds * kIters * slice_rows);
  EXPECT_EQ(cnt.unseen_node_queries - direct.unseen_node_queries,
            rounds * kIters * unseen_per_pass);
}

TEST_F(ServeCoalesceTest, WatermarksAreRealPublishedBoundariesUnderIngest) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 500u);

  TempDir dir;
  SplashServiceOptions sopts;
  sopts.microbatch_max_items = 16;
  sopts.microbatch_max_delay_s = 0.0005;
  sopts.train_on_ingest_labels = false;
  sopts.coalesce_max_linger_s = 0.0005;
  KeepWalHistory(dir.path(), &sopts);
  SplashService service(SmallModelOptions(), sopts);
  ASSERT_TRUE(service.RecoverOrStart(ds, split, nullptr).ok());

  const size_t n = 500;
  std::thread producer([&] {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(service.IngestEdge(live[i]).accepted());
    }
  });

  constexpr size_t kReaders = 4;
  std::vector<std::vector<uint64_t>> seen(kReaders);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&service, &ds, &seen, t] {
      ServeClient client(&service);
      std::vector<PropertyQuery> probe(ds.queries.end() - (t + 1),
                                       ds.queries.end());
      ServeResponse resp;
      uint64_t last = 0;
      for (int iter = 0; iter < 80; ++iter) {
        client.Predict(probe, &resp);
        ASSERT_EQ(resp.scores.rows(), probe.size());
        EXPECT_GE(resp.watermark_seq, last) << "watermark went backwards";
        last = resp.watermark_seq;
        seen[t].push_back(resp.watermark_seq);
      }
    });
  }
  producer.join();
  for (auto& t : readers) t.join();
  service.Flush();
  service.Stop();

  // Every watermark any reader ever observed — direct or coalesced — must
  // be a snapshot the apply thread really published: the warmup state (0)
  // or an applied-batch boundary the WAL recorded.
  std::set<uint64_t> published = {0};
  for (const WalRecord& rec : WalHistory(dir.path())) {
    published.insert(rec.seq_end);
  }
  for (size_t t = 0; t < kReaders; ++t) {
    for (const uint64_t wm : seen[t]) {
      EXPECT_TRUE(published.count(wm))
          << "reader " << t << " saw fabricated watermark " << wm;
    }
  }
  EXPECT_EQ(service.published_seq(), n);
}

TEST_F(ServeCoalesceTest, ExpiredDeadlineAnsweredLateButFlaggedNeverLost) {
  const Dataset ds = MakeWarmup(1200);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  SplashServiceOptions sopts;
  sopts.coalesce_max_linger_s = 0.002;
  SplashService service(SmallModelOptions(), sopts);
  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());
  const double t_end = ds.stream.max_time();

  // Reference bits from the quiescent direct path (no deadline).
  Matrix want;
  {
    ServeClient ref_client(&service);
    ServeResponse r;
    ref_client.PredictNode(7, t_end, &r);
    want = r.scores;
  }

  // Contended callers with an impossible deadline: a caller that lingered
  // in a group past its deadline must still get the full (flagged) answer.
  constexpr size_t kThreads = 6;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &want, t_end] {
      ServeClient client(&service);
      ServeResponse resp;
      for (int iter = 0; iter < 20; ++iter) {
        client.PredictNode(7, t_end, &resp, /*timeout_s=*/1e-12);
        EXPECT_TRUE(resp.deadline_exceeded);
        EXPECT_TRUE(BitEqual(want, resp.scores)) << "late answer corrupted";
      }
    });
  }
  for (auto& t : threads) t.join();
  service.Stop();
}

TEST_F(ServeCoalesceTest, SingleCallerBypassIsAllocationFree) {
  const Dataset ds = MakeWarmup(1500);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 100u);
  SplashServiceOptions sopts;
  SplashService service(SmallModelOptions(), sopts);
  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(service.IngestEdge(live[i]).accepted());
  }
  service.Flush();

  ServeClient client(&service);
  std::vector<PropertyQuery> probe(ds.queries.end() - 16, ds.queries.end());
  ServeResponse resp;       // reused: its score matrix is grow-only
  ServeResponse node_resp;  // ditto, for the 1-2 row endpoints
  const double t_end = ds.stream.max_time();

  // Warm-up grows the client scratch, the response matrices, and the
  // endpoint query scratch to their steady-state sizes.
  client.Predict(probe, &resp);
  client.PredictNode(live[0].src, t_end, &node_resp);
  client.ScoreEdge(live[0].src, live[0].dst, t_end, &node_resp);
  client.Predict(probe, &resp, /*timeout_s=*/30.0);

  const size_t allocs = CountAllocations([&] {
    for (int i = 0; i < 200; ++i) {
      client.Predict(probe, &resp);
      client.PredictNode(live[i % 100].src, t_end, &node_resp);
      client.ScoreEdge(live[i % 100].src, live[i % 100].dst, t_end,
                       &node_resp, /*timeout_s=*/30.0);
    }
  });
  EXPECT_EQ(allocs, 0u)
      << "single-caller read path must stay allocation-free at steady state";
  EXPECT_EQ(resp.watermark_seq, 100u);
  service.Stop();
}

TEST_F(ServeCoalesceTest, StressMixStaysSelfConsistent) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GE(live.size(), 600u);

  SplashServiceOptions sopts;
  sopts.microbatch_max_items = 32;
  sopts.microbatch_max_delay_s = 0.0005;
  sopts.coalesce_max_linger_s = 0.0005;
  SplashService service(SmallModelOptions(), sopts);
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(service.Start(ds, split, &fit).ok());
  const double t_end = ds.stream.max_time();

  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      ServeClient client(&service);
      for (size_t i = p * 300; i < p * 300 + 300; ++i) {
        if (client.IngestEdgeWithRetry(live[i])) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
        if (p == 0 && i % 25 == 24) {
          PropertyQuery q;
          q.node = live[i].dst;
          q.time = live[i].time;
          q.class_label = static_cast<int>(i / 25 % 3);
          (void)service.SubmitTrain(q);
        }
      }
    });
  }

  std::atomic<uint64_t> predict_calls{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      ServeClient client(&service);
      std::vector<PropertyQuery> probe(ds.queries.end() - 5, ds.queries.end());
      ServeResponse resp;
      uint64_t last = 0;
      for (int iter = 0; iter < 120; ++iter) {
        switch ((iter + static_cast<int>(t)) % 3) {
          case 0:
            client.Predict(probe, &resp);
            ASSERT_EQ(resp.scores.rows(), probe.size());
            break;
          case 1:
            client.PredictNode(live[iter].src, t_end, &resp,
                               /*timeout_s=*/(iter % 5 == 0) ? 1e-12 : 0.0);
            ASSERT_EQ(resp.scores.rows(), 1u);
            if (resp.scores.cols() >= 2) {
              // The service computes the margin in double precision.
              ASSERT_EQ(resp.score, static_cast<double>(resp.scores(0, 1)) -
                                        resp.scores(0, 0));
            }
            break;
          default:
            client.ScoreEdge(live[iter].src, live[iter].dst, t_end, &resp);
            ASSERT_EQ(resp.scores.rows(), 2u);
            break;
        }
        predict_calls.fetch_add(1, std::memory_order_relaxed);
        EXPECT_GE(resp.watermark_seq, last) << "watermark went backwards";
        last = resp.watermark_seq;
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : readers) t.join();
  service.Flush();
  service.Stop();

  const ServeCounters cnt = service.Stats().counters;
  EXPECT_EQ(cnt.published_seq, accepted.load());
  // Exactly-once accounting: every Predict* call completed as either a
  // direct call or a coalesced group member, never both, never neither.
  EXPECT_EQ(cnt.direct_calls + cnt.coalesced_callers, predict_calls.load());
}

TEST_F(ServeCoalesceTest, CoalesceDisabledKeepsEveryCallDirect) {
  const Dataset ds = MakeWarmup(1200);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  SplashServiceOptions sopts;
  sopts.coalesce_max_batch = 1;  // disabled
  SplashService service(SmallModelOptions(), sopts);
  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());
  const double t_end = ds.stream.max_time();

  Matrix want;
  {
    ServeClient ref_client(&service);
    ServeResponse r;
    ref_client.PredictNode(3, t_end, &r);
    want = r.scores;
  }
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&service, &want, t_end] {
      ServeClient client(&service);
      ServeResponse resp;
      for (int iter = 0; iter < 30; ++iter) {
        client.PredictNode(3, t_end, &resp);
        EXPECT_TRUE(BitEqual(want, resp.scores));
      }
    });
  }
  for (auto& t : threads) t.join();
  service.Stop();

  const ServeCounters cnt = service.Stats().counters;
  EXPECT_EQ(cnt.coalesced_callers, 0u);
  EXPECT_EQ(cnt.coalesced_groups, 0u);
  EXPECT_EQ(cnt.direct_calls, 4u * 30u + 1u);
}

}  // namespace
}  // namespace splash
