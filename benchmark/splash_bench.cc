// Copyright 2026 The SPLASH Reproduction Authors.
//
// The system benchmark's main program (benchmark/README.md). One process
// runs one workload:
//
//   splash_bench --workload <replay|ingest|ingest_durable|query_wide>
//                --seed <n> --seconds <s> --trace <0|1>
//
// It generates the workload's inputs from the seed (never timed), measures
// for the given run length, checks the program's outputs, writes a result
// file stamped with provenance under $SPLASH_BENCH_DIR/results (default
// .bench_build), prints a readable report, and ends stdout with one JSON
// line: {"correct", "attempted", "failed", "metrics"}. Untraced runs report
// the end-to-end metrics, traced runs the per-layer ones; both lists must
// match BENCHMARK.json, which compare.py reads for the bounds. The exit
// code is 0 only when every correctness check passed.

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/bench_util.h"
#include "benchmark/workloads.h"
#include "runtime/thread_pool.h"
#include "tensor/simd.h"

#ifndef SPLASH_BENCH_BUILD_TYPE
#define SPLASH_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef SPLASH_BENCH_COMPILER
#define SPLASH_BENCH_COMPILER "unknown"
#endif

namespace splash {
namespace bench {
namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json: every workload reports every metric of its mode.
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_cpu_s", "1/s"},
    {"state_mb", "MB"},
};

constexpr MetricDecl kPerLayer[] = {
    {"wall.throughput_per_s", "1/s"},
    {"wall.query_p50_us", "us"},
    {"wall.query_p95_us", "us"},
    {"wall.fresh_p50_ms", "ms"},
    {"wall.fresh_tail_ms", "ms"},
    {"core.prepare_s", "s"},
    {"core.fit_seen_s", "s"},
    {"core.select_s", "s"},
    {"graph.observe_ns_per_edge", "ns"},
    {"core.assemble_us_per_row", "us"},
    {"core.train_us_per_row", "us"},
    {"tensor.train_gflops", "GFLOP/s"},
    {"core.predict_us_per_row", "us"},
    {"tensor.predict_gflops", "GFLOP/s"},
    {"core.pack_us", "us"},
    {"probe.predict_b1_us", "us"},
    {"probe.predict_bG_us", "us"},
    {"probe.wal_append_us", "us"},
    {"probe.serialize_ms", "ms"},
    {"probe.checkpoint_ms", "ms"},
    {"serve.apply_mean_us", "us"},
    {"serve.score_service_p99_us", "us"},
    {"serve.edges_per_batch", "count"},
    {"serve.train_rows_per_batch", "count"},
    {"serve.queue_hwm", "count"},
    {"serve.coalesced_frac", "ratio"},
    {"serve.group_size", "count"},
    {"serve.wal_fsyncs_per_s", "1/s"},
    {"serve.checkpoints", "count"},
    {"serve.unseen_query_frac", "ratio"},
    {"eval.wait_frac", "ratio"},
    {"eval.overlap_frac", "ratio"},
    {"trace.reconcile_ratio", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "splash_bench: %s\nusage: splash_bench --workload "
               "<replay|ingest|ingest_durable|query_wide> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::vector<std::pair<std::string, std::string>> Provenance(
    const RunConfig& cfg) {
  return {
      {"git_sha", EnvOr("SPLASH_BENCH_GIT_SHA", "none")},
      {"git_dirty", EnvOr("SPLASH_BENCH_GIT_DIRTY", "unknown")},
      {"source_hash", EnvOr("SPLASH_BENCH_SOURCE_HASH", "unknown")},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"splash_threads", std::to_string(ThreadPool::GlobalThreads())},
      {"kernel_backend", KernelBackendName()},
      {"cpu_features", CpuFeatureString()},
      {"l2_bytes", std::to_string(DetectCacheTopology().l2_bytes)},
      {"cache_topology", CacheTopologyString()},
      {"gemm_pack", GemmPackEnabled() ? "on" : "off"},
      {"build_type", SPLASH_BENCH_BUILD_TYPE},
      {"compiler", SPLASH_BENCH_COMPILER},
      {"workload", cfg.workload},
      {"seed", std::to_string(cfg.seed)},
      {"seconds", Num(cfg.seconds)},
      {"trace", cfg.trace ? "1" : "0"},
  };
}

/// Every declared metric exactly once, with its declared unit, and nothing
/// else: a mismatch is a benchmark bug, reported without a result line.
bool MetricsMatchDeclaration(const RunResult& res, bool trace) {
  std::set<std::string> want, got;
  bool ok = true;
  auto check = [&](const MetricDecl* begin, const MetricDecl* end) {
    for (const MetricDecl* d = begin; d != end; ++d) want.insert(d->name);
    for (const Metric& m : res.metrics) {
      const MetricDecl* d = begin;
      while (d != end && m.name != d->name) ++d;
      if (d == end || m.unit != d->unit || !got.insert(m.name).second) {
        std::fprintf(stderr, "undeclared or duplicate metric %s [%s]\n",
                     m.name.c_str(), m.unit.c_str());
        ok = false;
      }
    }
  };
  if (trace) {
    check(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    check(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  for (const std::string& name : want) {
    if (got.count(name) == 0) {
      std::fprintf(stderr, "declared metric %s not reported\n", name.c_str());
      ok = false;
    }
  }
  return ok;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void WriteResultFile(const RunConfig& cfg, const RunResult& res,
                     const std::vector<std::pair<std::string, std::string>>&
                         provenance) {
  const std::string dir = cfg.work_dir + "/results";
  std::filesystem::create_directories(dir);
  const long long stamp = static_cast<long long>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  const std::string path = dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + "-trace" +
                           (cfg.trace ? "1" : "0") + "-" +
                           std::to_string(stamp) + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"provenance\": {");
  for (size_t i = 0; i < provenance.size(); ++i) {
    std::fprintf(f, "%s\n    %s: %s", i > 0 ? "," : "",
                 JsonString(provenance[i].first).c_str(),
                 JsonString(provenance[i].second).c_str());
  }
  std::fprintf(f, "\n  },\n  \"correct\": %s,\n  \"attempted\": %" PRIu64
                  ",\n  \"failed\": %" PRIu64 ",\n  \"checks\": {",
               res.correct() ? "true" : "false", res.attempted, res.failed);
  for (size_t i = 0; i < res.checks.size(); ++i) {
    std::fprintf(f, "%s\n    %s: %s", i > 0 ? "," : "",
                 JsonString(res.checks[i].first).c_str(),
                 res.checks[i].second ? "true" : "false");
  }
  std::fprintf(f, "\n  },\n  \"metrics\": %s,\n  \"diagnostics\": %s\n}\n",
               MetricsJson(res.metrics).c_str(),
               MetricsJson(res.diagnostics).c_str());
  std::fclose(f);
  std::printf("result file: %s\n", path.c_str());
}

void PrintReport(const RunConfig& cfg, const RunResult& res,
                 const std::vector<std::pair<std::string, std::string>>&
                     provenance) {
  std::printf("== splash_bench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
              cfg.workload.c_str(), cfg.seed, cfg.seconds, cfg.trace ? 1 : 0);
  for (const auto& [k, v] : provenance) {
    std::printf("  provenance %-16s %s\n", k.c_str(), v.c_str());
  }
  for (const auto& [name, ok] : res.checks) {
    std::printf("  check  %-40s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }
  std::printf("  ops    attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              res.attempted, res.failed);
  for (const Metric& m : res.metrics) {
    std::printf("  metric %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : res.diagnostics) {
    std::printf("  diag   %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  cfg.work_dir = EnvOr("SPLASH_BENCH_DIR", ".bench_build");
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0' && !val.empty();
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0.0 && cfg.seconds <= 600;
    } else if (arg == "--trace") {
      have_trace = val == "0" || val == "1";
      cfg.trace = val == "1";
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds (0 < s <= 600) and --trace (0|1) "
          "are required");
  }

  RunResult res;
  if (cfg.workload == "replay") {
    res = RunReplay(cfg);
  } else if (cfg.workload == "ingest" || cfg.workload == "ingest_durable" ||
             cfg.workload == "query_wide") {
    res = RunServe(cfg);
  } else {
    Usage(("unknown workload " + cfg.workload).c_str());
  }
  if (!MetricsMatchDeclaration(res, cfg.trace)) return 3;

  const auto provenance = Provenance(cfg);
  PrintReport(cfg, res, provenance);
  WriteResultFile(cfg, res, provenance);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              res.correct() ? "true" : "false", res.attempted, res.failed,
              MetricsJson(res.metrics).c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace splash

int main(int argc, char** argv) { return splash::bench::Main(argc, argv); }
