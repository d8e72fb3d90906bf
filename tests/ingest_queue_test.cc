// Copyright 2026 The SPLASH Reproduction Authors.
//
// Wakeup contracts of the serve ingest queue (serve/ingest_queue.h): a
// parked consumer or producer is woken exactly when it can proceed, and
// never left parked. Each wait below is bounded, so a lost wakeup fails
// the test instead of hanging it.

#include "serve/ingest_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

namespace splash {
namespace {

using Clock = std::chrono::steady_clock;

/// Far above any wake latency: a call that had to wait this long was not
/// woken.
constexpr auto kDeadline = std::chrono::seconds(20);

IngestItem Item(size_t producer, size_t seq) {
  IngestItem it;
  it.edge.src = static_cast<NodeId>(producer);
  it.edge.dst = static_cast<NodeId>(seq);
  return it;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

TEST(IngestQueueTest, PopBatchReturnsOnceMaxItemsAreQueued) {
  IngestQueue q(64);
  constexpr size_t kBatch = 8;
  constexpr double kMaxWait = 60.0;
  std::vector<IngestItem> out;
  const Clock::time_point t0 = Clock::now();
  std::future<size_t> popped = std::async(std::launch::async, [&] {
    return q.PopBatch(&out, kBatch, kMaxWait);
  });
  // The first item wakes the empty wait; the rest arrive while the
  // consumer waits for the batch to fill, and the last one must wake it.
  ASSERT_TRUE(q.Push(Item(0, 0)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (size_t i = 1; i < kBatch; ++i) ASSERT_TRUE(q.Push(Item(0, i)));
  const bool woke = popped.wait_for(kDeadline) == std::future_status::ready;
  q.Stop();  // ends a wait the last push failed to
  ASSERT_TRUE(woke);
  EXPECT_EQ(popped.get(), kBatch);
  EXPECT_LT(SecondsSince(t0), kMaxWait / 2);
  ASSERT_EQ(out.size(), kBatch);
  for (size_t i = 0; i < kBatch; ++i) EXPECT_EQ(out[i].edge.dst, i);
}

TEST(IngestQueueTest, PopBatchReturnsPartialBatchAfterMaxWait) {
  IngestQueue q(64);
  ASSERT_TRUE(q.Push(Item(0, 0)));
  std::vector<IngestItem> out;
  EXPECT_EQ(q.PopBatch(&out, 8, 0.01), 1u);
}

TEST(IngestQueueTest, BlockedProducerResumesAfterPop) {
  IngestQueue q(2);
  ASSERT_TRUE(q.Push(Item(0, 0)));
  ASSERT_TRUE(q.Push(Item(0, 1)));
  std::future<bool> pushed = std::async(std::launch::async, [&] {
    return q.Push(Item(0, 2));
  });
  // Parked on the full ring.
  EXPECT_EQ(pushed.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  std::vector<IngestItem> out;
  ASSERT_EQ(q.PopBatch(&out, 1, 0.0), 1u);
  const bool woke = pushed.wait_for(kDeadline) == std::future_status::ready;
  const size_t depth = q.size();
  q.Stop();  // frees a producer the pop failed to wake
  ASSERT_TRUE(woke);
  EXPECT_TRUE(pushed.get());
  EXPECT_EQ(depth, 2u);
  EXPECT_EQ(q.high_watermark(), 2u);
}

TEST(IngestQueueTest, StopWakesParkedConsumer) {
  IngestQueue q(4);
  std::vector<IngestItem> out;
  std::future<size_t> popped = std::async(std::launch::async, [&] {
    return q.PopBatch(&out, 4, 60.0);
  });
  EXPECT_EQ(popped.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  q.Stop();
  ASSERT_EQ(popped.wait_for(kDeadline), std::future_status::ready);
  EXPECT_EQ(popped.get(), 0u);  // stopped and empty: drain complete
}

TEST(IngestQueueTest, StopWakesParkedConsumerFillingABatch) {
  IngestQueue q(4);
  ASSERT_TRUE(q.Push(Item(0, 0)));
  std::vector<IngestItem> out;
  std::future<size_t> popped = std::async(std::launch::async, [&] {
    return q.PopBatch(&out, 4, 60.0);
  });
  EXPECT_EQ(popped.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  q.Stop();
  ASSERT_EQ(popped.wait_for(kDeadline), std::future_status::ready);
  EXPECT_EQ(popped.get(), 1u);  // pending items stay poppable
}

TEST(IngestQueueTest, StopWakesParkedProducers) {
  IngestQueue q(1);
  ASSERT_TRUE(q.Push(Item(0, 0)));
  std::vector<std::future<bool>> pushed;
  for (size_t p = 1; p <= 3; ++p) {
    pushed.push_back(std::async(std::launch::async, [&q, p] {
      return q.Push(Item(p, 0));
    }));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  q.Stop();
  for (std::future<bool>& f : pushed) {
    ASSERT_EQ(f.wait_for(kDeadline), std::future_status::ready);
    EXPECT_FALSE(f.get());
  }
  std::vector<IngestItem> out;
  EXPECT_EQ(q.PopBatch(&out, 8, 0.0), 1u);
  EXPECT_EQ(q.PopBatch(&out, 8, 0.0), 0u);
}

TEST(IngestQueueTest, ProducersAndConsumerAtTinyCapacityLoseNothing) {
  constexpr size_t kProducers = 3;
  constexpr size_t kPerProducer = 5000;
  for (size_t capacity = 1; capacity <= 4; ++capacity) {
    for (size_t max_items : {size_t{1}, capacity, capacity + 1}) {
      // A batch that can fill waits far longer than kDeadline for it, so
      // a lost fill wakeup stalls the producers past the deadline; one
      // that cannot fill (max_items > capacity) waits out a short
      // max_wait_s on every pop.
      const double max_wait = max_items <= capacity ? 60.0 : 1e-5;
      const std::string what = "capacity " + std::to_string(capacity) +
                                " max_items " + std::to_string(max_items);
      IngestQueue q(capacity);
      std::vector<std::future<size_t>> producers;
      for (size_t p = 0; p < kProducers; ++p) {
        producers.push_back(std::async(std::launch::async, [&q, p] {
          size_t accepted = 0;
          for (size_t i = 0; i < kPerProducer; ++i) {
            accepted += q.Push(Item(p, i));
          }
          return accepted;
        }));
      }
      // The consumer checks per-producer FIFO order and counts items until
      // the drain-complete signal.
      std::future<bool> consumed = std::async(std::launch::async, [&] {
        std::vector<size_t> next(kProducers, 0);
        std::vector<IngestItem> out;
        bool in_order = true;
        while (q.PopBatch(&out, max_items, max_wait) > 0) {
          for (const IngestItem& it : out) {
            const size_t p = static_cast<size_t>(it.edge.src);
            in_order = in_order && p < kProducers &&
                       static_cast<size_t>(it.edge.dst) == next[p];
            if (p < kProducers) ++next[p];
          }
        }
        for (size_t p = 0; p < kProducers; ++p) {
          in_order = in_order && next[p] == kPerProducer;
        }
        return in_order;
      });
      // A lost wakeup parks the consumer on a queue the producers keep
      // full, so it shows as producers that never finish. Stop then ends
      // the last partial batch's wait.
      bool finished = true;
      for (std::future<size_t>& f : producers) {
        finished = finished &&
                   f.wait_for(kDeadline) == std::future_status::ready;
      }
      q.Stop();  // also frees everything a lost wakeup left parked
      EXPECT_TRUE(finished) << "producers stuck: " << what;
      ASSERT_EQ(consumed.wait_for(kDeadline), std::future_status::ready)
          << "consumer stuck: " << what;
      for (std::future<size_t>& f : producers) {
        EXPECT_EQ(f.get(), kPerProducer) << what;
      }
      EXPECT_TRUE(consumed.get()) << "lost or reordered items: " << what;
    }
  }
}

}  // namespace
}  // namespace splash
