// Copyright 2026 The SPLASH Reproduction Authors.
//
// Bounded multi-producer / single-consumer ingest queue of the serving
// layer. Producers enqueue edges and labeled training feedback; the apply
// thread drains them in arrival order as micro-batches (size watermark =
// `max_items`, time watermark = `max_wait_s` — whichever fires first).
//
// Backpressure (see DESIGN.md §5): when the ring is full, Push parks the
// producer on a condvar until the apply thread frees a slot. Nothing
// accepted is lost; the wait bleeds upstream into the producer's latency.
// The ring buffer is sized once at construction — steady-state
// Push/PopBatch do not allocate.
//
// Wakeups go only to a waiter that can proceed. The parked consumer
// records the depth it waits for (1 while the queue is empty, `max_items`
// while a batch fills) and only the push that reaches it notifies, so
// filling a batch does not wake the apply thread once per item. A pop
// notifies producers only when some are parked on a full ring.

#ifndef SPLASH_SERVE_INGEST_QUEUE_H_
#define SPLASH_SERVE_INGEST_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "core/types.h"

namespace splash {

/// One ingest event: a stream edge or a labeled training query applied at
/// the next micro-batch boundary.
struct IngestItem {
  enum class Kind : uint8_t { kEdge, kTrain };
  Kind kind = Kind::kEdge;
  TemporalEdge edge;
  PropertyQuery train;
};

class IngestQueue {
 public:
  explicit IngestQueue(size_t capacity)
      : ring_(capacity < 1 ? 1 : capacity) {}

  /// Enqueues `item`. Returns false only when the queue was stopped. A
  /// full ring parks the caller until space frees; the service times the
  /// whole call from outside, so block time shows up in the ingest
  /// latency histogram.
  bool Push(const IngestItem& item) {
    std::unique_lock<std::mutex> lk(mu_);
    if (size_ == ring_.size() && !stopped_) {
      ++parked_producers_;
      not_full_.wait(lk, [&] { return size_ < ring_.size() || stopped_; });
      --parked_producers_;
    }
    if (stopped_) return false;
    ring_[(head_ + size_) % ring_.size()] = item;
    ++size_;
    if (size_ > high_watermark_) high_watermark_ = size_;
    const bool wake = size_ == consumer_wake_at_;
    lk.unlock();
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Drains up to `max_items` into `*out` (cleared first). Blocks until at
  /// least one item is available or Stop() was called; once the first item
  /// is in, waits up to `max_wait_s` more for the batch to fill (the
  /// coalescing time watermark). Returns the number of items popped — 0
  /// only when stopped AND empty (the drain-complete signal).
  size_t PopBatch(std::vector<IngestItem>* out, size_t max_items,
                  double max_wait_s) {
    out->clear();
    if (max_items == 0) max_items = 1;
    std::unique_lock<std::mutex> lk(mu_);
    consumer_wake_at_ = 1;
    not_empty_.wait(lk, [&] { return size_ > 0 || stopped_; });
    if (size_ < max_items && !stopped_ && max_wait_s > 0.0) {
      consumer_wake_at_ = max_items;
      not_empty_.wait_for(
          lk, std::chrono::duration<double>(max_wait_s),
          [&] { return size_ >= max_items || stopped_; });
    }
    consumer_wake_at_ = kNotWaiting;
    const size_t n = size_ < max_items ? size_ : max_items;
    for (size_t i = 0; i < n; ++i) {
      out->push_back(ring_[head_]);
      head_ = (head_ + 1) % ring_.size();
    }
    size_ -= n;
    const bool wake = n > 0 && parked_producers_ > 0;
    lk.unlock();
    if (wake) not_full_.notify_all();
    return n;
  }

  /// Stops the queue: pending items remain poppable (drain), new pushes
  /// fail, blocked producers and the consumer wake.
  void Stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopped_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return size_;
  }

  /// Maximum depth ever observed (monotone). A high-watermark at capacity
  /// means producers saturated the ring at least once and parked.
  size_t high_watermark() const {
    std::lock_guard<std::mutex> lk(mu_);
    return high_watermark_;
  }

 private:
  static constexpr size_t kNotWaiting = std::numeric_limits<size_t>::max();

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<IngestItem> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
  size_t high_watermark_ = 0;
  // The depth whose push wakes the parked consumer (kNotWaiting while it
  // runs), and the producers parked on a full ring.
  size_t consumer_wake_at_ = kNotWaiting;
  size_t parked_producers_ = 0;
  bool stopped_ = false;
};

}  // namespace splash

#endif  // SPLASH_SERVE_INGEST_QUEUE_H_
