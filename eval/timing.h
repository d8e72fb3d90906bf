// Copyright 2026 The SPLASH Reproduction Authors.
//
// Wall-clock timing for benches and trainers, plus the latency histogram
// the serving layer (serve/) uses for per-endpoint p50/p99/p999.

#ifndef SPLASH_EVAL_TIMING_H_
#define SPLASH_EVAL_TIMING_H_

#include <array>
#include <chrono>
#include <cstdint>

namespace splash {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  void Reset() { start_ = std::chrono::steady_clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Nanoseconds elapsed since construction or the last Reset().
  uint64_t Nanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Quantile digest of one endpoint's latency distribution (nanoseconds).
struct LatencySummary {
  uint64_t count = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;
};

/// Fixed-size log-linear latency histogram (HDR-style): values below 2^4 ns
/// land in exact unit buckets; above that, each power-of-two octave is cut
/// into 2^4 linear sub-buckets, so any recorded value is off by at most
/// 1/16 (~6.3%) of itself. The bucket array is a member std::array —
/// Record() never allocates, which is what lets per-thread histograms sit
/// on the serving hot path (timing_histogram_test gates this). Per-thread
/// instances are combined with Merge(); quantiles come from a bucket walk
/// and return the bucket midpoint, clamped to the observed [min, max].
///
/// Thread contract: Record/Merge/quantiles are NOT synchronized. The
/// serving layer keeps one histogram per client/endpoint and serializes
/// reads against writes externally (a per-client mutex).
class LatencyHistogram {
 public:
  LatencyHistogram() { Clear(); }

  void Clear() {
    counts_.fill(0);
    count_ = 0;
    total_ns_ = 0;
    min_ns_ = ~uint64_t{0};
    max_ns_ = 0;
  }

  /// Records one latency sample. Allocation-free.
  void RecordNs(uint64_t ns) {
    ++counts_[BucketOf(ns)];
    ++count_;
    total_ns_ += ns;
    if (ns < min_ns_) min_ns_ = ns;
    if (ns > max_ns_) max_ns_ = ns;
  }

  /// Adds `other`'s samples to this histogram (bucket-wise, exact).
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    total_ns_ += other.total_ns_;
    if (other.min_ns_ < min_ns_) min_ns_ = other.min_ns_;
    if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
  }

  uint64_t count() const { return count_; }
  uint64_t total_ns() const { return total_ns_; }
  uint64_t min_ns() const { return count_ == 0 ? 0 : min_ns_; }
  uint64_t max_ns() const { return max_ns_; }
  double mean_ns() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(total_ns_) /
                             static_cast<double>(count_);
  }

  /// Value (ns) below which a fraction `q` in [0, 1] of the samples fall:
  /// the midpoint of the bucket holding the ceil(q * count)-th smallest
  /// sample (so at q=0.99 over 100 samples the 99th sample answers, not
  /// the 100th), clamped to the observed extremes (Quantile(0) == min and
  /// Quantile(1) == max exactly). 0 when empty.
  double QuantileNs(double q) const {
    if (count_ == 0) return 0.0;
    if (q <= 0.0) return static_cast<double>(min_ns_);
    if (q >= 1.0) return static_cast<double>(max_ns_);
    // 0-based index of the ceil(q*count)-th sample.
    const double target = q * static_cast<double>(count_);
    uint64_t rank = static_cast<uint64_t>(target);
    if (static_cast<double>(rank) != target) ++rank;  // ceil
    rank = rank > 0 ? rank - 1 : 0;
    if (rank >= count_) rank = count_ - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) {
        const uint64_t lo = BucketLowerBound(i);
        const uint64_t width = BucketWidth(i);
        // Midpoint of the bucket's value range [lo, lo + width - 1]; a
        // unit bucket reports its exact value.
        double v =
            static_cast<double>(lo) + 0.5 * static_cast<double>(width - 1);
        if (v < static_cast<double>(min_ns_)) {
          v = static_cast<double>(min_ns_);
        }
        if (v > static_cast<double>(max_ns_)) {
          v = static_cast<double>(max_ns_);
        }
        return v;
      }
    }
    return static_cast<double>(max_ns_);
  }

  LatencySummary Summarize() const {
    LatencySummary s;
    s.count = count_;
    s.mean_ns = mean_ns();
    s.p50_ns = QuantileNs(0.50);
    s.p99_ns = QuantileNs(0.99);
    s.p999_ns = QuantileNs(0.999);
    s.min_ns = min_ns();
    s.max_ns = max_ns_;
    return s;
  }

 private:
  static constexpr size_t kSubBits = 4;  // 16 sub-buckets per octave
  // 64 octaves covers the full uint64 ns range (the last octaves are
  // unreachable in practice; ~2^42 ns is already over an hour).
  static constexpr size_t kNumBuckets = size_t{64} << kSubBits;

  static size_t BucketOf(uint64_t v) {
    if (v < (uint64_t{1} << kSubBits)) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - static_cast<int>(kSubBits);
    const size_t sub = static_cast<size_t>(
        (v >> shift) & ((uint64_t{1} << kSubBits) - 1));
    return ((static_cast<size_t>(shift) + 1) << kSubBits) + sub;
  }

  static uint64_t BucketLowerBound(size_t idx) {
    if (idx < (size_t{1} << kSubBits)) return idx;
    const size_t shift = (idx >> kSubBits) - 1;
    const uint64_t sub = idx & ((size_t{1} << kSubBits) - 1);
    return ((uint64_t{1} << kSubBits) + sub) << shift;
  }

  static uint64_t BucketWidth(size_t idx) {
    if (idx < (size_t{1} << kSubBits)) return 1;
    return uint64_t{1} << ((idx >> kSubBits) - 1);
  }

  std::array<uint64_t, kNumBuckets> counts_;
  uint64_t count_ = 0;
  uint64_t total_ns_ = 0;
  uint64_t min_ns_ = ~uint64_t{0};
  uint64_t max_ns_ = 0;
};

}  // namespace splash

#endif  // SPLASH_EVAL_TIMING_H_
