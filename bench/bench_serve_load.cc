// Copyright 2026 The SPLASH Reproduction Authors.
//
// Load generator for the serving subsystem (serve/): drives a live
// SplashService with mixed ingest:query traffic and reports throughput +
// latency quantiles per scenario. Two driver shapes:
//
//   closed loop — T driver threads issue back-to-back operations (each op
//     is an IngestEdge with probability `ingest_frac`, else a
//     PredictNode); measures peak sustainable throughput.
//   open loop — one paced driver submits operations on a fixed-rate
//     schedule (sleep-until), measuring latency at an offered load the
//     service does not control — the shape that exposes queueing delay.
//
// Output is a google-benchmark-compatible JSON (BENCH_serve.json via
// scripts/serve_load.sh) so scripts/check_bench_regression.py can gate the
// pinned smoke row (BM_ServeSmokeMixed) against the committed baseline,
// normalized by the ALU calibration row (BM_ServeCalibrate) to cancel host
// speed. cpu_time is *process* CPU per operation — it includes the apply
// thread and pool workers, so ingest-path regressions cannot hide behind
// concurrency.
//
// Usage: bench_serve_load [--smoke] [--ops N] [--threads T]
//                         [--wal none|batch|always] [--json PATH]
//                         [--context key=value]...
//
// The durability row (BM_ServeSmokeMixedWal/<policy>) reruns the pinned
// smoke workload against a durable service (WAL + checkpoints in a
// throwaway dir) so the snapshot records what the write-ahead layer costs;
// --wal picks its fsync policy.

#include <ctime>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/splash.h"
#include "datasets/synthetic.h"
#include "eval/timing.h"
#include "eval/trainer.h"
#include "serve/service.h"
#include "tensor/rng.h"
#include "tensor/simd.h"

namespace splash {
namespace {

uint64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// `wide` picks the serving-realistic model for the concurrent-reader row:
/// the hidden-layer GEMM dominates per-query cost. The tiny default stays
/// pinned for the CI gate row.
SplashOptions LoadModelOptions(bool wide) {
  SplashOptions opts;
  opts.mode = SplashMode::kForceStructural;  // no selection pass
  opts.augment.feature_dim = wide ? 64 : 16;
  opts.slim.hidden_dim = wide ? 1024 : 32;
  opts.slim.time_dim = wide ? 16 : 8;
  opts.slim.k_recent = wide ? 10 : 5;
  opts.slim.dropout = 0.0f;
  opts.seed = 9;
  return opts;
}

struct RowResult {
  std::string name;
  uint64_t iterations = 0;
  double real_ns_per_op = 0.0;
  double cpu_ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  // Per-row run config, stamped from what actually ran (the dispatched
  // kernel table, not the requested one): check_bench_regression.py
  // refuses unlike-config comparisons on serve rows.
  std::string kernel_backend;
  std::string wal_mode = "off";
  std::string model = "none";
  ServeStats stats;
  bool has_stats = false;
};

struct LoadConfig {
  std::string name;
  double ingest_frac = 0.5;
  size_t driver_threads = 1;
  size_t ops = 20000;
  double open_loop_rate = 0.0;  // > 0: paced arrivals per second
  uint64_t seed = 1234;
  /// Serving-realistic model dims (see LoadModelOptions).
  bool wide_model = false;
  /// Live edges ingested and flushed before the timed loop. When set,
  /// queries draw their nodes from these edges' endpoints, so reads
  /// compute forwards over neighbor history instead of answering
  /// untouched nodes from the cold-read memo.
  size_t preload_edges = 0;
  /// "" = no durability; "none"/"batch"/"always" = durable service (WAL +
  /// checkpoints in a throwaway dir) with that fsync policy — the
  /// durability-overhead row of BENCH_serve.json.
  std::string wal;
};

/// The share of queries the published replica's cold-read memo answered.
double ColdReadFrac(const ServeStats& stats) {
  const uint64_t queries = stats.counters.queries;
  return queries == 0 ? 0.0
                      : static_cast<double>(stats.counters.cold_reads) /
                            static_cast<double>(queries);
}

/// One scenario against a fresh service. `warmup` provides the offline
/// fit; `live` is the edge pool the drivers ingest (in order, shared
/// cursor). Queries target the warmup node space at the live horizon.
RowResult RunScenario(const LoadConfig& cfg, const Dataset& warmup,
                      const ChronoSplit& split,
                      const std::vector<TemporalEdge>& live) {
  SplashServiceOptions sopts;
  sopts.microbatch_max_items = 256;
  sopts.microbatch_max_delay_s = 0.001;
  sopts.queue_capacity = 8192;
  sopts.train_on_ingest_labels = false;
  std::string wal_dir;
  if (!cfg.wal.empty()) {
    char tmpl[] = "/tmp/splash_bench_wal_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed for --wal run\n");
      std::exit(1);
    }
    wal_dir = tmpl;
    sopts.data_dir = wal_dir;
    sopts.wal_fsync = cfg.wal == "always"  ? WalFsyncPolicy::kAlways
                      : cfg.wal == "none" ? WalFsyncPolicy::kNone
                                          : WalFsyncPolicy::kBatch;
    sopts.checkpoint_interval_batches = 256;
  }
  TrainerOptions fit;
  fit.epochs = 1;
  fit.batch_size = 256;
  fit.early_stopping = false;
  std::fflush(stdout);
  SplashService service(LoadModelOptions(cfg.wide_model), sopts);
  {
    const Status st = wal_dir.empty()
                          ? service.Start(warmup, split, &fit)
                          : service.RecoverOrStart(warmup, split, &fit);
    if (!st.ok()) {
      std::fprintf(stderr, "Start failed: %s\n", st.message().c_str());
      std::exit(1);
    }
  }

  const size_t preload = std::min(cfg.preload_edges, live.size());
  std::vector<NodeId> query_nodes;
  for (size_t i = 0; i < preload; ++i) {
    service.IngestEdge(live[i]);
    query_nodes.push_back(live[i].src);
    query_nodes.push_back(live[i].dst);
  }
  service.Flush();

  std::atomic<size_t> edge_cursor{preload};
  std::atomic<size_t> op_cursor{0};
  const NodeId node_span = static_cast<NodeId>(warmup.stream.num_nodes());
  const double query_time = live.empty() ? 0.0 : live.back().time + 1.0;

  // Drivers claim ops from a shared pool rather than fixed per-thread
  // quotas: all threads stay active until the pool drains, so a multi-
  // reader row measures the steady concurrent regime instead of ending
  // with one straggler thread serially draining its private quota.
  auto driver = [&](size_t tid) {
    ServeClient client(&service);
    ServeResponse resp;  // reused: the into-API keeps steady state alloc-free
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + tid);
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
      const size_t i = op_cursor.fetch_add(1);
      if (i >= cfg.ops) break;
      if (cfg.open_loop_rate > 0.0) {
        // Paced arrivals: absolute schedule so service latency cannot
        // slow the offered load (open-loop discipline).
        const auto due =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / cfg.open_loop_rate));
        std::this_thread::sleep_until(due);
      }
      const bool do_ingest = rng.Uniform() < cfg.ingest_frac;
      if (do_ingest) {
        const size_t idx = edge_cursor.fetch_add(1);
        if (idx < live.size()) {
          service.IngestEdge(live[idx]);
          continue;
        }
        // Pool exhausted: fall through to a query so the op count holds.
      }
      const NodeId node =
          query_nodes.empty()
              ? static_cast<NodeId>(rng.UniformInt(node_span))
              : query_nodes[rng.UniformInt(query_nodes.size())];
      client.PredictNode(node, query_time, &resp);
    }
  };

  const uint64_t cpu0 = ProcessCpuNs();
  WallTimer wall;
  std::vector<std::thread> threads;
  for (size_t t = 1; t < cfg.driver_threads; ++t) {
    threads.emplace_back(driver, t);
  }
  driver(0);
  for (std::thread& t : threads) t.join();
  service.Flush();
  const double wall_s = wall.Seconds();
  const uint64_t cpu_ns = ProcessCpuNs() - cpu0;
  service.Stop();
  if (!wal_dir.empty() && wal_dir.rfind("/tmp/", 0) == 0) {
    const std::string cmd = "rm -rf '" + wal_dir + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }

  RowResult row;
  row.name = cfg.name;
  row.kernel_backend = KernelBackendName();
  row.wal_mode = cfg.wal.empty() ? "off" : cfg.wal;
  row.model = cfg.wide_model ? "fd64h1024t16k10" : "fd16h32t8k5";
  row.iterations = cfg.ops;
  row.real_ns_per_op = wall_s * 1e9 / static_cast<double>(row.iterations);
  row.cpu_ns_per_op =
      static_cast<double>(cpu_ns) / static_cast<double>(row.iterations);
  row.ops_per_sec = static_cast<double>(row.iterations) / wall_s;
  row.stats = service.Stats();
  row.has_stats = true;
  std::printf(
      "%-28s %9" PRIu64 " ops  %8.0f ops/s  cpu %7.0f ns/op  "
      "p50/p99/p999 %.0f/%.0f/%.0f us  wm %" PRIu64 " drops %" PRIu64
      "  cold %.3f\n",
      cfg.name.c_str(), row.iterations, row.ops_per_sec, row.cpu_ns_per_op,
      row.stats.predict.p50_ns * 1e-3, row.stats.predict.p99_ns * 1e-3,
      row.stats.predict.p999_ns * 1e-3, row.stats.counters.published_seq,
      row.stats.counters.ingest_dropped, ColdReadFrac(row.stats));
  std::fflush(stdout);
  return row;
}

/// ALU calibration row: a fixed SplitMix64 chain whose ns/op cancels the
/// host's single-core speed in the regression gate (same role as
/// BM_DegreeEncode in the micro bench).
RowResult RunCalibration() {
  constexpr uint64_t kIters = uint64_t{1} << 24;
  uint64_t acc = 0x9e3779b97f4a7c15ULL;
  const uint64_t cpu0 = ProcessCpuNs();
  WallTimer wall;
  for (uint64_t i = 0; i < kIters; ++i) acc = SplitMix64(acc ^ i);
  const double wall_s = wall.Seconds();
  const uint64_t cpu_ns = ProcessCpuNs() - cpu0;
  if (acc == 42) std::printf("!\n");  // keep the chain alive
  RowResult row;
  row.name = "BM_ServeCalibrate";
  row.kernel_backend = KernelBackendName();
  row.iterations = kIters;
  row.real_ns_per_op = wall_s * 1e9 / static_cast<double>(kIters);
  row.cpu_ns_per_op = static_cast<double>(cpu_ns) / static_cast<double>(kIters);
  row.ops_per_sec = static_cast<double>(kIters) / wall_s;
  return row;
}

void WriteJson(const std::string& path,
               const std::vector<std::pair<std::string, std::string>>& context,
               const std::vector<RowResult>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"context\": {\n");
  std::fprintf(f, "    \"executable\": \"bench_serve_load\"");
  for (const auto& [k, v] : context) {
    std::fprintf(f, ",\n    \"%s\": \"%s\"", k.c_str(), v.c_str());
  }
  std::fprintf(f, "\n  },\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowResult& r = rows[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"run_name\": \"%s\",\n"
                 "      \"run_type\": \"iteration\",\n"
                 "      \"iterations\": %" PRIu64 ",\n"
                 "      \"real_time\": %.4f,\n"
                 "      \"cpu_time\": %.4f,\n"
                 "      \"time_unit\": \"ns\",\n"
                 "      \"ops_per_sec\": %.2f,\n"
                 "      \"kernel_backend\": \"%s\",\n"
                 "      \"wal_mode\": \"%s\",\n"
                 "      \"model\": \"%s\"",
                 r.name.c_str(), r.name.c_str(), r.iterations,
                 r.real_ns_per_op, r.cpu_ns_per_op, r.ops_per_sec,
                 r.kernel_backend.c_str(), r.wal_mode.c_str(),
                 r.model.c_str());
    if (r.has_stats) {
      std::fprintf(
          f,
          ",\n      \"predict_p50_ns\": %.1f,\n"
          "      \"predict_p99_ns\": %.1f,\n"
          "      \"predict_p999_ns\": %.1f,\n"
          "      \"ingest_p99_ns\": %.1f,\n"
          "      \"apply_p99_ns\": %.1f,\n"
          "      \"queries\": %" PRIu64 ",\n"
          "      \"ingest_accepted\": %" PRIu64 ",\n"
          "      \"ingest_dropped\": %" PRIu64 ",\n"
          "      \"watermark\": %" PRIu64 ",\n"
          "      \"unseen_node_queries\": %" PRIu64 ",\n"
          "      \"batches_applied\": %" PRIu64 ",\n"
          "      \"wal_records\": %" PRIu64 ",\n"
          "      \"wal_fsyncs\": %" PRIu64 ",\n"
          "      \"checkpoints_written\": %" PRIu64 ",\n"
          "      \"cold_read_frac\": %.4f",
          r.stats.predict.p50_ns, r.stats.predict.p99_ns,
          r.stats.predict.p999_ns, r.stats.ingest.p99_ns,
          r.stats.apply.p99_ns, r.stats.counters.queries,
          r.stats.counters.ingest_accepted, r.stats.counters.ingest_dropped,
          r.stats.counters.published_seq,
          r.stats.counters.unseen_node_queries,
          r.stats.counters.batches_applied, r.stats.counters.wal_records,
          r.stats.counters.wal_fsyncs, r.stats.counters.checkpoints_written,
          ColdReadFrac(r.stats));
    }
    std::fprintf(f, "\n    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  bool smoke = false;
  size_t ops = 0;
  size_t threads = 0;
  std::string wal_mode = "batch";
  std::string json_path = "BENCH_serve.json";
  std::vector<std::pair<std::string, std::string>> context;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--ops") {
      ops = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--threads") {
      threads = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--wal") {
      wal_mode = next();
      if (wal_mode != "none" && wal_mode != "batch" && wal_mode != "always") {
        std::fprintf(stderr, "--wal wants none|batch|always, got %s\n",
                     wal_mode.c_str());
        std::exit(2);
      }
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--context") {
      const std::string kv = next();
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--context wants key=value, got %s\n",
                     kv.c_str());
        std::exit(2);
      }
      context.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (ops == 0) ops = 60000;

  // The serving corpus: a synthetic stream split into an offline warmup
  // prefix (Prepare + Fit) and a live suffix the drivers ingest.
  auto make_corpus = [](size_t n_ops, Dataset* ds, ChronoSplit* split,
                        std::vector<TemporalEdge>* live) {
    SyntheticConfig cfg;
    cfg.task = TaskType::kNodeClassification;
    cfg.num_nodes = 2000;
    cfg.num_edges = n_ops + 20000;
    cfg.num_communities = 4;
    cfg.query_rate = 0.1;
    cfg.late_arrival_frac = 0.2;
    cfg.seed = 4242;
    *ds = GenerateSynthetic(cfg);
    *split = MakeChronoSplit(ds->stream, 0.1, 0.6);
    live->clear();
    for (size_t i = 0; i < ds->stream.size(); ++i) {
      if (ds->stream[i].time > split->val_end_time) {
        live->push_back(ds->stream[i]);
      }
    }
  };

  std::vector<RowResult> rows;
  rows.push_back(RunCalibration());
  {
    // The pinned CI gate row: fixed corpus, fixed op count, fixed seed,
    // one driver thread, 50:50 mix — identical work in baseline (sweep)
    // and CI (--smoke) runs regardless of --ops.
    constexpr size_t kSmokeOps = 20000;
    Dataset ds;
    ChronoSplit split;
    std::vector<TemporalEdge> live;
    make_corpus(kSmokeOps, &ds, &split, &live);
    std::printf("smoke corpus: %zu warmup-period edges, %zu live edges, "
                "%zu ops\n\n",
                ds.stream.size() - live.size(), live.size(), kSmokeOps);
    LoadConfig c;
    c.name = "BM_ServeSmokeMixed";
    c.ingest_frac = 0.5;
    c.driver_threads = 1;
    c.ops = kSmokeOps;
    c.seed = 77;
    // Reads name endpoints of preloaded live edges, so each computes a
    // forward over neighbor history. Random warm-up nodes are untouched
    // after boot, and the share of them the cold-read memo answered swung
    // with thread timing, and the gated cpu/op with it.
    c.preload_edges = 4000;

    // Median of 7 repetitions (fresh service each): single mixed-traffic
    // runs swing ~±20% cpu/op from scheduler noise on shared runners,
    // which would drown the regression gate's threshold.
    constexpr int kGateReps = 7;
    RowResult reps[kGateReps];
    for (RowResult& r : reps) r = RunScenario(c, ds, split, live);
    const auto by_cpu = [](const RowResult& a, const RowResult& b) {
      return a.cpu_ns_per_op < b.cpu_ns_per_op;
    };
    std::sort(std::begin(reps), std::end(reps), by_cpu);
    rows.push_back(reps[kGateReps / 2]);

    // Durability-overhead row: the identical pinned workload with the WAL +
    // checkpoint layer on (--wal picks the fsync policy; default batch).
    // Not a gated row — it exists so BENCH_serve.json documents what
    // durability costs relative to BM_ServeSmokeMixed on the same host.
    LoadConfig cw = c;
    cw.name = "BM_ServeSmokeMixedWal/" + wal_mode;
    cw.wal = wal_mode;
    RowResult wreps[3];
    for (RowResult& r : wreps) r = RunScenario(cw, ds, split, live);
    std::sort(std::begin(wreps), std::end(wreps), by_cpu);
    rows.push_back(wreps[1]);

    // Sixteen concurrent pure-query readers on the serving-realistic wide
    // model. Not a gated row: it records what concurrent wide reads cost
    // on this host. The nodes it reads are endpoints of a preloaded span
    // of live edges, so each read computes a one-row wide forward over
    // neighbor history (the printed cold share stays near 0). Fewer ops
    // than the gate row: each such read costs ~100x a tiny one.
    LoadConfig cq;
    cq.name = "BM_PredictPerQuery/16";
    cq.ingest_frac = 0.0;
    cq.driver_threads = 16;
    cq.ops = 6000;
    cq.seed = 916;
    cq.wide_model = true;
    cq.preload_edges = 4000;
    rows.push_back(RunScenario(cq, ds, split, live));
  }
  if (!smoke) {
    Dataset ds;
    ChronoSplit split;
    std::vector<TemporalEdge> live;
    make_corpus(ops, &ds, &split, &live);
    std::printf("\nsweep corpus: %zu warmup-period edges, %zu live edges, "
                "%zu ops/scenario\n\n",
                ds.stream.size() - live.size(), live.size(), ops);
    const size_t t = threads == 0 ? 2 : threads;
    for (const int pct : {90, 50, 10}) {
      LoadConfig c;
      c.name = "BM_ServeClosed/ingest" + std::to_string(pct);
      c.ingest_frac = pct / 100.0;
      c.driver_threads = t;
      c.ops = ops;
      c.seed = 1000 + static_cast<uint64_t>(pct);
      rows.push_back(RunScenario(c, ds, split, live));
    }
    {
      LoadConfig c;
      c.name = "BM_ServeOpen/rate4000_ingest50";
      c.ingest_frac = 0.5;
      c.driver_threads = 1;
      c.ops = ops / 4;
      c.open_loop_rate = 4000.0;
      c.seed = 55;
      rows.push_back(RunScenario(c, ds, split, live));
    }
  }

  WriteJson(json_path, context, rows);
  return 0;
}

}  // namespace
}  // namespace splash

int main(int argc, char** argv) { return splash::Main(argc, argv); }
