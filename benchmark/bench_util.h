// Copyright 2026 The SPLASH Reproduction Authors.
//
// Shared plumbing of the system benchmark (benchmark/splash_bench.cc): the
// run configuration and result record every workload fills, exact sample
// percentiles, process RSS, scratch directories inside the checkout, and
// the in-memory span recorder of the traced run.
//
// Percentiles are computed from raw samples (sorted, linearly
// interpolated), never from LatencyHistogram buckets: a bucket midpoint
// would read exactly the same on many runs and hide small moves.

#ifndef SPLASH_BENCHMARK_BENCH_UTIL_H_
#define SPLASH_BENCHMARK_BENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace splash {
namespace bench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for result files, span CSVs and scratch state (inside the
  /// checkout's build directory).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run); `diagnostics`
/// only reach the result file and the human-readable report.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;
  std::vector<std::pair<std::string, bool>> checks;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Diag(const std::string& name, double value, const std::string& unit) {
    diagnostics.push_back({name, value, unit});
  }
  void Check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  bool correct() const {
    for (const auto& c : checks) {
      if (!c.second) return false;
    }
    return attempted > 0;
  }
};

/// steady_clock nanoseconds (one clock for every timestamp of a run).
int64_t NowNs();

/// CPU time of the whole process (every thread), nanoseconds.
int64_t ProcessCpuNs();

/// CPU time of the calling thread, nanoseconds.
int64_t ThreadCpuNs();

/// Sleeps (long waits) then spins (the last few tens of microseconds) until
/// steady time `due_ns`. Call LowerTimerSlack() once on the waiting thread
/// so the sleep wakes close to its deadline.
void WaitUntil(int64_t due_ns);
void LowerTimerSlack();

/// While alive, every thread of this process (those started meanwhile
/// included) runs on one CPU, the one the constructing thread was on; the
/// destructor gives every thread the constructing thread's former CPU set
/// back. The gated phases run pinned, so the HostSpeedProbe the measuring
/// thread runs samples the very core the measured work runs on.
class PinToOneCpu {
 public:
  PinToOneCpu();
  ~PinToOneCpu();
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  std::vector<uint8_t> saved_;  // the former cpu_set_t, as bytes
};

/// How fast the shared host runs this process right now. The benchmark's
/// vCPUs share physical cores, caches and memory with other tenants, and
/// the CPU time of a fixed piece of work moves with their load by 20-30%
/// over minutes. The probe is a fixed reference computation of the same
/// kind as the program's own work — rows gathered at random from a 16 MB
/// table, pushed through a 64x64 dense layer and scattered back — whose
/// CPU time the measuring thread samples between its own operations. A
/// window's slowdown is the probes' mean CPU time over kNominalNs, and
/// dividing the window's CPU time by it gives CPU time at the reference
/// speed: on seeds 1-10 that cut the spread of the replay rate from 0.10
/// to 0.06 of its median. The probe is frozen benchmark code, so a change
/// to the program moves only the work it is compared with.
class HostSpeedProbe {
 public:
  /// Probe CPU time on a quiet benchmark host (4-vCPU Sapphire Rapids guest).
  static constexpr double kNominalNs = 120000.0;

  explicit HostSpeedProbe(int64_t interval_ns = 25000000);

  /// Starts a new window: forgets earlier samples.
  void Reset();
  /// Runs the reference computation once, on the calling thread.
  void Run();
  /// Runs it when `interval_ns` has passed since the last run.
  void MaybeRun(int64_t now_ns) {
    if (now_ns >= next_ns_) Run();
  }
  /// CPU seconds the probe itself spent in this window.
  double probe_cpu_s() const { return probe_ns_ * 1e-9; }
  /// Mean probe CPU time over kNominalNs (1 = reference speed; 1 when no
  /// probe ran).
  double slowdown() const;
  size_t samples() const { return samples_; }

 private:
  static constexpr size_t kRows = 65536, kDim = 64;
  std::vector<float> table_, weights_;
  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  int64_t interval_ns_;
  int64_t next_ns_ = 0;
  double probe_ns_ = 0.0;
  size_t samples_ = 0;
};

/// One timed call of a set-up step.
struct TimedCall {
  double cpu_s = 0.0;   // process CPU seconds at the probe's reference speed
  double wall_s = 0.0;  // wall seconds, as measured
};

/// Times `fn` in process CPU time and rescales it to the reference speed of
/// `probe`, which runs a few times right before and right after the call
/// (a call into the program cannot be interleaved with probes).
template <typename Fn>
TimedCall TimeAtReferenceSpeed(HostSpeedProbe* probe, Fn&& fn) {
  constexpr int kProbes = 8;
  probe->Reset();
  for (int i = 0; i < kProbes; ++i) probe->Run();
  const int64_t c0 = ProcessCpuNs();
  const int64_t t0 = NowNs();
  fn();
  const int64_t t1 = NowNs();
  const int64_t c1 = ProcessCpuNs();
  for (int i = 0; i < kProbes; ++i) probe->Run();
  return {static_cast<double>(c1 - c0) * 1e-9 / probe->slowdown(),
          static_cast<double>(t1 - t0) * 1e-9};
}

/// Linearly interpolated quantile of `v` (q in [0, 1]); sorts `v` in
/// place. 0 when empty.
double Quantile(std::vector<double>* v, double q);

/// Median of a copy of `v`.
double Median(std::vector<double> v);

/// Tail percentile that a few noisy seconds of a shared host cannot move:
/// `v` (in time order) is cut into up to 24 consecutive windows, each large
/// enough that its q-quantile has 10 samples beyond it, and the median of
/// the windows' q-quantiles is returned. Too few samples for two windows
/// give the plain quantile.
double WindowedQuantile(const std::vector<double>& v, double q);

/// Heap bytes the process holds (glibc mallinfo2: in-use arena bytes plus
/// mmapped chunks), MB. Unlike RSS it does not move with where the
/// allocator happened to leave freed pages.
double HeapLiveMb();

/// Resident set size of this process, MB (from /proc/self/statm).
double RssMb();

/// Creates a fresh directory under `parent` (created if missing).
std::string MakeTempDir(const std::string& parent);

/// Removes `dir` and everything below it.
void RemoveTree(const std::string& dir);

/// One timed call at a layer boundary. `parent` 0 = root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t count = 0;  // edges or rows the call processed
};

/// Fixed-capacity span buffer: Record() is lock-free and allocation-free
/// (a full buffer counts drops instead of growing), so recording from the
/// caller and the pipeline thread at once needs no lock. Spans stay in
/// memory and are written once, at exit.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) : spans_(capacity) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// A fresh span id, for a parent whose children are recorded first.
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  /// Records a finished span; returns its id (0 when recording is off or
  /// the buffer is full).
  uint64_t Record(const char* name, uint64_t parent, int64_t start_ns,
                  int64_t end_ns, uint64_t count, uint64_t id = 0);

  /// Toggles recording (the traced run alternates it to measure its own
  /// overhead). Off = Record is a no-op.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Recorded spans, valid once every recording thread has quiesced.
  std::vector<Span> Snapshot() const;
  uint64_t dropped() const { return dropped_.load(); }

  /// Writes the fixed-column CSV
  /// (span_id,parent_id,name,thread,start_ns,end_ns,count).
  bool WriteCsv(const std::string& path) const;

  /// Small dense index of the calling thread (0 = first thread seen).
  static uint32_t ThreadIndex();

 private:
  std::vector<Span> spans_;
  std::atomic<size_t> used_{0};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> enabled_{true};
};

/// Writes the traced run's spans to <work_dir>/results as one CSV.
void WriteSpans(const RunConfig& cfg, const SpanRecorder& spans);

/// Forward FLOPs of one SLIM row (core/slim.h): K neighbor messages over
/// [Dv || Dt] -> H, the self branch Dv -> H, the 2H -> H head and H -> O.
/// A train step is counted as three forwards (forward + 2x backward).
double SlimForwardFlopsPerRow(size_t input_dim, size_t time_dim,
                              size_t hidden_dim, size_t out_dim,
                              size_t k_recent);

}  // namespace bench
}  // namespace splash

#endif  // SPLASH_BENCHMARK_BENCH_UTIL_H_
