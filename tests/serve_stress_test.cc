// Copyright 2026 The SPLASH Reproduction Authors.
//
// Concurrency stress of the serving subsystem — the test CI runs under
// ThreadSanitizer. One producer ingests edges (plus training feedback)
// while several reader threads hammer the query path and the main thread
// polls Stats(). The assertions target torn state:
//   - every response's (watermark_seq, watermark_time) pair must name a
//     real log prefix — a reader overlapping a half-applied batch would
//     report a seq/time pair the final log contradicts — and its seq must
//     be a boundary the apply thread published (one the WAL recorded);
//   - readers mix batched and one-row reads: every call returns its rows,
//     a one-row margin is the double difference of its scores, and
//     `queries` counts exactly the rows issued;
//   - after Stop(), the published snapshot must be bit-identical to
//     re-applying the micro-batch sequence the WAL recorded to a fresh
//     replica — a lost or doubled batch cannot hide;
//   - TSan itself checks the pin/publish protocol's happens-before edges.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/splash.h"
#include "datasets/synthetic.h"
#include "eval/trainer.h"
#include "serve/service.h"
#include "tests/serve_test_util.h"

namespace splash {
namespace {

class ServeStressTest : public ::testing::Test {};

SplashOptions StressModelOptions() {
  SplashOptions opts;
  opts.mode = SplashMode::kForceStructural;
  opts.augment.feature_dim = 12;
  opts.slim.hidden_dim = 24;
  opts.slim.time_dim = 8;
  opts.slim.k_recent = 5;
  opts.slim.dropout = 0.0f;
  opts.seed = 11;
  return opts;
}

TEST_F(ServeStressTest, ConcurrentIngestAndQueriesNeverObserveTornState) {
  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 200;
  cfg.num_edges = 5000;
  cfg.num_communities = 3;
  cfg.query_rate = 0.2;
  cfg.seed = 31;
  const Dataset ds = GenerateSynthetic(cfg);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  std::vector<TemporalEdge> live;
  for (size_t i = 0; i < ds.stream.size(); ++i) {
    if (ds.stream[i].time > split.val_end_time) live.push_back(ds.stream[i]);
  }
  ASSERT_GT(live.size(), 1000u);

  TempDir dir;
  SplashServiceOptions sopts;
  sopts.microbatch_max_items = 64;
  sopts.microbatch_max_delay_s = 0.0002;
  sopts.queue_capacity = 1024;
  sopts.train_on_ingest_labels = true;
  KeepWalHistory(dir.path(), &sopts);
  SplashService service(StressModelOptions(), sopts);
  TrainerOptions fit;
  fit.epochs = 1;
  fit.batch_size = 128;
  fit.early_stopping = false;
  ASSERT_TRUE(service.RecoverOrStart(ds, split, &fit).ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> fed{0};

  std::thread producer([&] {
    for (size_t i = 0; i < live.size(); ++i) {
      // Advance the bound BEFORE the enqueue: the apply thread can publish
      // the edge the instant Push returns, so the invariant readers check
      // is watermark <= edges *offered*, not edges already acknowledged.
      fed.store(i + 1, std::memory_order_release);
      EXPECT_TRUE(service.IngestEdge(live[i]).accepted());  // lossless
      if (i % 16 == 15) {
        PropertyQuery q;
        q.node = live[i].dst;
        q.time = live[i].time;
        q.class_label = static_cast<int>(i % 3);
        service.SubmitTrain(q);
      }
    }
    done.store(true, std::memory_order_release);
  });

  struct Seen {
    uint64_t seq;
    double time;
  };
  std::vector<std::vector<Seen>> seen(3);
  std::atomic<uint64_t> rows_issued{0};
  const std::vector<PropertyQuery> batch(ds.queries.end() - 5,
                                         ds.queries.end());
  std::vector<std::thread> readers;
  for (size_t r = 0; r < seen.size(); ++r) {
    readers.emplace_back([&, r] {
      ServeClient client(&service);
      ServeResponse resp;
      uint64_t last_seq = 0;
      size_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        const TemporalEdge& e = live[(r * 97 + i * 13) % live.size()];
        if ((i + r) % 2 == 0) {
          client.Predict(batch, &resp);
          ASSERT_EQ(resp.scores.rows(), batch.size());
        } else {
          client.PredictNode(e.src, e.time, &resp);
          ASSERT_EQ(resp.scores.rows(), 1u);
          // The service computes the margin in double precision.
          ASSERT_EQ(resp.score, static_cast<double>(resp.scores(0, 1)) -
                                    resp.scores(0, 0));
        }
        rows_issued.fetch_add(resp.scores.rows(), std::memory_order_relaxed);
        // A snapshot can never be ahead of the producer, nor regress.
        EXPECT_LE(resp.watermark_seq, fed.load(std::memory_order_acquire));
        EXPECT_GE(resp.watermark_seq, last_seq);
        last_seq = resp.watermark_seq;
        seen[r].push_back({resp.watermark_seq, resp.watermark_time});
        ++i;
      }
    });
  }

  // Main thread: poll the stats endpoint concurrently (merges the client
  // histograms while they record).
  while (!done.load(std::memory_order_acquire)) {
    const ServeStats st = service.Stats();
    EXPECT_LE(st.counters.published_seq, fed.load());
    std::this_thread::yield();
  }
  producer.join();
  for (std::thread& t : readers) t.join();
  service.Flush();
  service.Stop();

  // Post-hoc torn-state audit: every observed (seq, time) names a real log
  // prefix of the final ingest log, at a boundary the apply thread really
  // published: the boot state (0) or an applied batch the WAL recorded.
  const EdgeStream& log = service.ingest_log();
  ASSERT_EQ(log.size(), live.size());
  std::set<uint64_t> published = {0};
  for (const WalRecord& rec : WalHistory(dir.path())) {
    published.insert(rec.seq_end);
  }
  for (const auto& lane : seen) {
    for (const Seen& s : lane) {
      ASSERT_LE(s.seq, log.size());
      const double want = s.seq == 0 ? 0.0 : log.time_data()[s.seq - 1];
      ASSERT_EQ(s.time, want)
          << "response watermark (seq=" << s.seq
          << ") does not match the log — torn snapshot";
      ASSERT_TRUE(published.count(s.seq))
          << "response watermark " << s.seq << " was never published";
    }
  }

  // Final-state oracle: re-apply the micro-batch
  // sequence the WAL recorded to a fresh, identically-fitted replica.
  auto ref = std::make_unique<SplashPredictor>(StressModelOptions());
  ASSERT_TRUE(ref->Prepare(ds, split).ok());
  {
    StreamTrainer trainer(fit);
    trainer.Fit(ref.get(), ds, split);
  }
  ref->SetTraining(false);
  ref->ResetState();
  size_t cursor = 0;
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
    }
  }
  ASSERT_EQ(cursor, log.size());

  std::vector<PropertyQuery> probe(ds.queries.end() - 32, ds.queries.end());
  // Read the reference through the service's own path: the const forward.
  SplashQueryScratch ref_scratch;
  const Matrix want = ref->PredictBatchConst(probe, &ref_scratch);
  ServeClient client(&service);
  ServeResponse resp;
  client.Predict(probe, &resp);
  ASSERT_EQ(resp.watermark_seq, log.size());
  ASSERT_EQ(want.rows(), resp.scores.rows());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.data()[i], resp.scores.data()[i])
        << "final snapshot diverged from the recorded apply sequence at "
        << i;
  }

  const ServeStats st = service.Stats();
  EXPECT_EQ(st.counters.ingest_dropped, 0u);  // a full queue blocks
  EXPECT_EQ(st.counters.ingest_accepted, live.size());
  // Every row any call scored is counted once: the readers' rows plus
  // the final probe.
  EXPECT_EQ(st.counters.queries, rows_issued.load() + probe.size());
  EXPECT_GT(st.predict.count, 0u);
}

TEST_F(ServeStressTest, StopMidBurstDrainsAcceptedAndNeverDeadlocks) {
  // Producers saturate a tiny queue while the main thread calls
  // Stop() mid-burst. The lifecycle contract: Stop never deadlocks against
  // blocked producers, everything accepted before the stop is applied, and
  // the final snapshot is valid (published == log size, queryable).

  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 150;
  cfg.num_edges = 4000;
  cfg.num_communities = 3;
  cfg.query_rate = 0.2;
  cfg.seed = 47;
  const Dataset ds = GenerateSynthetic(cfg);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  std::vector<TemporalEdge> live;
  for (size_t i = 0; i < ds.stream.size(); ++i) {
    if (ds.stream[i].time > split.val_end_time) live.push_back(ds.stream[i]);
  }
  ASSERT_GT(live.size(), 1000u);

  SplashServiceOptions sopts;
  sopts.microbatch_max_items = 8;  // at most the queue: a batch can fill
  sopts.microbatch_max_delay_s = 0.0002;
  sopts.queue_capacity = 8;  // small: producers block constantly
  sopts.train_on_ingest_labels = true;
  SplashService service(StressModelOptions(), sopts);
  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());

  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      // A blocked push returning false (queue stopped) ends the burst —
      // that is the expected way out once Stop() lands.
      for (size_t i = p; i < live.size(); i += 3) {
        if (!service.IngestEdge(live[i]).accepted()) return;
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let the burst get going, then stop in the thick of it.
  while (accepted.load(std::memory_order_relaxed) < 200) {
    std::this_thread::yield();
  }
  service.Stop();
  for (std::thread& t : producers) t.join();

  // Accepted-before-stop items may or may not have made the final drain —
  // but the published state must be a consistent prefix and queries must
  // still answer from the surviving snapshot.
  const ServeStats st = service.Stats();
  EXPECT_EQ(st.counters.published_seq, service.ingest_log().size());
  EXPECT_LE(service.ingest_log().size(),
            accepted.load(std::memory_order_relaxed));
  ServeClient client(&service);
  ServeResponse resp;
  client.PredictNode(live[0].src, live[0].time, &resp);
  EXPECT_EQ(resp.watermark_seq, st.counters.published_seq);

  // Double-Stop on an already-stopped service is a no-op, not a hang.
  service.Stop();
  EXPECT_EQ(service.Stats().counters.published_seq,
            st.counters.published_seq);
}

TEST_F(ServeStressTest, StopBeforeStartIsIgnoredAndStartStillWorks) {
  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 100;
  cfg.num_edges = 1500;
  cfg.num_communities = 3;
  cfg.query_rate = 0.2;
  cfg.seed = 53;
  const Dataset ds = GenerateSynthetic(cfg);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);

  SplashServiceOptions sopts;
  sopts.microbatch_max_items = 16;
  sopts.microbatch_max_delay_s = 0.0;
  SplashService service(StressModelOptions(), sopts);

  // Never-started: Stop must neither crash nor poison the queue.
  service.Stop();
  service.Stop();
  EXPECT_FALSE(service.running());

  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());
  EXPECT_TRUE(service.running());
  const double t = ds.stream.max_time();
  EXPECT_TRUE(service.IngestEdge(TemporalEdge(1, 2, t)).accepted());
  service.Flush();
  EXPECT_EQ(service.published_seq(), 1u);
  service.Stop();
  EXPECT_FALSE(service.running());
  service.Stop();  // idempotent after a real run too
  EXPECT_EQ(service.published_seq(), 1u);
}

}  // namespace
}  // namespace splash
