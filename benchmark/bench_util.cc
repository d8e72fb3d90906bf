// Copyright 2026 The SPLASH Reproduction Authors.

#include "benchmark/bench_util.h"

#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <thread>

namespace splash {
namespace bench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

HostSpeedProbe::HostSpeedProbe(int64_t interval_ns)
    : table_(kRows * kDim), weights_(kDim * kDim), interval_ns_(interval_ns) {
  for (size_t i = 0; i < table_.size(); ++i) {
    table_[i] = static_cast<float>((i * 2654435761u) % 1000) * 1e-3f;
  }
  for (size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = static_cast<float>((i * 40503u) % 100) * 1e-4f;
  }
}

void HostSpeedProbe::Reset() {
  probe_ns_ = 0.0;
  samples_ = 0;
  next_ns_ = 0;
}

void HostSpeedProbe::Run() {
  const int64_t t0 = ThreadCpuNs();
  float out[kDim];
  for (int r = 0; r < 128; ++r) {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const float* row = &table_[(state_ % kRows) * kDim];
    for (size_t j = 0; j < kDim; ++j) out[j] = 0.0f;
    for (size_t k = 0; k < kDim; ++k) {
      const float x = row[k];
      const float* w = &weights_[k * kDim];
      for (size_t j = 0; j < kDim; ++j) out[j] += x * w[j];
    }
    float* dst = &table_[((state_ >> 20) % kRows) * kDim];
    // Bounded near 1, so the table never drifts into denormals.
    for (size_t j = 0; j < kDim; ++j) {
      dst[j] = 0.5f * dst[j] + 0.5f + 1e-3f * out[j];
    }
  }
  probe_ns_ += static_cast<double>(ThreadCpuNs() - t0);
  ++samples_;
  next_ns_ = NowNs() + interval_ns_;
}

double HostSpeedProbe::slowdown() const {
  return samples_ > 0
             ? probe_ns_ / static_cast<double>(samples_) / kNominalNs
             : 1.0;
}

void WaitUntil(int64_t due_ns) {
  // Sleep through long waits, then spin: an open-loop generator at 100k
  // ops/s has 10us between ops, far below sleep granularity. With the
  // timer slack lowered a sleep overshoots by a few microseconds, so a
  // short spin window keeps the generators' CPU use small.
  constexpr int64_t kSpinNs = 50000;
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

void LowerTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

namespace {

/// Applies `set` to every thread of this process.
void SetAffinityOfAllThreads(const cpu_set_t& set) {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid =
        static_cast<pid_t>(std::atoi(entry.path().filename().c_str()));
    if (tid > 0) ::sched_setaffinity(tid, sizeof(set), &set);
  }
}

}  // namespace

PinToOneCpu::PinToOneCpu() : saved_(sizeof(cpu_set_t)) {
  cpu_set_t* saved = reinterpret_cast<cpu_set_t*>(saved_.data());
  ::sched_getaffinity(0, sizeof(cpu_set_t), saved);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(std::max(0, ::sched_getcpu()), &one);
  SetAffinityOfAllThreads(one);
}

PinToOneCpu::~PinToOneCpu() {
  SetAffinityOfAllThreads(*reinterpret_cast<const cpu_set_t*>(saved_.data()));
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*v)[lo] + frac * ((*v)[hi] - (*v)[lo]);
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double WindowedQuantile(const std::vector<double>& v, double q) {
  constexpr size_t kMaxWindows = 24;
  const size_t min_window =
      static_cast<size_t>(std::ceil(10.0 / std::max(1.0 - q, 1e-3)));
  const size_t windows = std::min(kMaxWindows, v.size() / min_window);
  if (windows < 2) {
    std::vector<double> all = v;
    return Quantile(&all, q);
  }
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> part(v.begin() + v.size() * w / windows,
                             v.begin() + v.size() * (w + 1) / windows);
    per_window.push_back(Quantile(&part, q));
  }
  return Median(std::move(per_window));
}

double HeapLiveMb() {
  const struct mallinfo2 mi = ::mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

double RssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string MakeTempDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string tmpl = parent + "/run_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed under %s\n", parent.c_str());
    std::exit(2);
  }
  return tmpl;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

uint64_t SpanRecorder::Record(const char* name, uint64_t parent,
                              int64_t start_ns, int64_t end_ns, uint64_t count,
                              uint64_t id) {
  if (!enabled()) return 0;
  const size_t slot = used_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  Span& s = spans_[slot];
  s.id = id != 0 ? id : NewId();
  s.parent = parent;
  s.name = name;
  s.thread = ThreadIndex();
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.count = count;
  return s.id;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  const size_t n = std::min(used_.load(), spans_.size());
  return std::vector<Span>(spans_.begin(), spans_.begin() + n);
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span_id,parent_id,name,thread,start_ns,end_ns,count\n");
  for (const Span& s : Snapshot()) {
    std::fprintf(f, "%" PRIu64 ",%" PRIu64 ",%s,%u,%" PRId64 ",%" PRId64
                    ",%" PRIu64 "\n",
                 s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns,
                 s.count);
  }
  return std::fclose(f) == 0;
}

void WriteSpans(const RunConfig& cfg, const SpanRecorder& spans) {
  const std::string dir = cfg.work_dir + "/results";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/spans-" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".csv";
  if (spans.WriteCsv(path)) std::printf("span file: %s\n", path.c_str());
}

uint32_t SpanRecorder::ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

double SlimForwardFlopsPerRow(size_t input_dim, size_t time_dim,
                              size_t hidden_dim, size_t out_dim,
                              size_t k_recent) {
  const double dv = static_cast<double>(input_dim);
  const double dt = static_cast<double>(time_dim);
  const double h = static_cast<double>(hidden_dim);
  const double o = static_cast<double>(out_dim);
  const double k = static_cast<double>(k_recent);
  return 2.0 * (k * (dv + dt) * h + dv * h + 2.0 * h * h + h * o);
}

}  // namespace bench
}  // namespace splash
