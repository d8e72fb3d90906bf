// Copyright 2026 The SPLASH Reproduction Authors.
//
// serve_crash_child: the process scripts/crash_harness.sh kills.
//
// Two modes over one deterministic corpus (the synthetic dataset below,
// fixed seeds — both modes regenerate it, so no files are exchanged
// besides the data_dir):
//
//   --mode=run     RecoverOrStart on --data-dir, then resume feeding the
//                  live corpus from the recovered watermark (the ingest
//                  log is a corpus prefix: kBlock loses nothing, so the
//                  recovered edge count IS the resume index). Exits 0
//                  when the corpus is exhausted; the harness kill -9s it
//                  anywhere before that. --pace-us throttles ingest so a
//                  wall-clock kill lands mid-stream, not after the end.
//
//   --mode=verify  The bit-exact recovery oracle, standalone: replay the
//                  full WAL history (gc is off in run mode) through a
//                  fresh predictor, RecoverOrStart, and require the
//                  recovered predictor blob, ingest log, and a probe
//                  query to match byte-for-byte. Exits 0 on match, 1 on
//                  any divergence (printed to stderr).
//
// Crash points can additionally be armed via SPLASH_CRASH_POINT
// (ArmCrashPointsFromEnv) — the harness's kill -9 needs none of that, but
// it lets the same binary reproduce a specific torn-write deterministically.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/serialize.h"
#include "core/splash.h"
#include "datasets/synthetic.h"
#include "eval/trainer.h"
#include "serve/fault_injection.h"
#include "serve/service.h"
#include "serve/wal.h"

namespace splash {
namespace {

Dataset MakeCorpus(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 120;
  cfg.num_edges = 2400;
  cfg.num_communities = 3;
  cfg.intra_prob = 0.9;
  cfg.query_rate = 0.25;
  cfg.late_arrival_frac = 0.2;
  cfg.seed = seed;
  return GenerateSynthetic(cfg);
}

SplashOptions CrashModelOptions() {
  SplashOptions opts;
  opts.mode = SplashMode::kForceStructural;
  opts.augment.feature_dim = 12;
  opts.slim.hidden_dim = 24;
  opts.slim.time_dim = 8;
  opts.slim.k_recent = 5;
  opts.slim.dropout = 0.0f;
  opts.seed = 7;
  return opts;
}

TrainerOptions CrashFit() {
  TrainerOptions fit;
  fit.epochs = 2;
  fit.batch_size = 64;
  fit.early_stopping = false;
  return fit;
}

SplashServiceOptions CrashServiceOptions(const std::string& data_dir) {
  SplashServiceOptions opts;
  opts.microbatch_max_items = 24;
  opts.microbatch_max_delay_s = 0.0;
  opts.queue_capacity = 256;
  opts.backpressure = BackpressurePolicy::kBlock;
  opts.data_dir = data_dir;
  opts.wal_fsync = WalFsyncPolicy::kBatch;  // kill -9: page cache survives
  opts.wal_group_records = 8;
  opts.checkpoint_interval_batches = 16;
  opts.checkpoint_on_stop = true;
  opts.gc_wal_on_checkpoint = false;  // verify replays the full history
  return opts;
}

std::vector<TemporalEdge> LiveEdges(const Dataset& ds,
                                    const ChronoSplit& split) {
  std::vector<TemporalEdge> live;
  for (size_t i = 0; i < ds.stream.size(); ++i) {
    if (ds.stream[i].time > split.val_end_time) live.push_back(ds.stream[i]);
  }
  return live;
}

int RunMode(const std::string& data_dir, uint64_t seed, size_t max_edges,
            int pace_us) {
  const Dataset ds = MakeCorpus(seed);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);

  SplashService svc(CrashModelOptions(), CrashServiceOptions(data_dir));
  TrainerOptions fit = CrashFit();
  const Status st = svc.RecoverOrStart(ds, split, &fit);
  if (!st.ok()) {
    std::fprintf(stderr, "RecoverOrStart: %s\n", st.message().c_str());
    return 2;
  }
  const size_t start = static_cast<size_t>(svc.recovered_seq());
  const size_t end =
      max_edges == 0 ? live.size() : std::min(live.size(), start + max_edges);
  std::fprintf(stderr, "run: recovered_seq=%zu feeding [%zu, %zu)\n", start,
               start, end);
  for (size_t i = start; i < end; ++i) {
    svc.IngestEdge(live[i]);
    if (i % 7 == 3) {
      PropertyQuery q;
      q.node = live[i].dst;
      q.time = live[i].time;
      q.class_label = static_cast<int>(i % 3);
      svc.SubmitTrain(q);
    }
    if (pace_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(pace_us));
    }
  }
  svc.Stop();
  std::fprintf(stderr, "run: corpus exhausted at %zu, clean stop\n", end);
  return 0;
}

int VerifyMode(const std::string& data_dir, uint64_t seed) {
  const Dataset ds = MakeCorpus(seed);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);

  // Reference first: RecoverOrStart checkpoints and rotates the WAL. The
  // history is read with recovery's own contiguity rule, from batch 0.
  std::vector<WalRecord> history;
  bool gap = false;
  const Status hst = ReadWalHistory(data_dir, 0, 0, &history, &gap);
  if (!hst.ok()) {
    std::fprintf(stderr, "verify: WAL history: %s\n", hst.message().c_str());
    return 1;
  }
  auto ref = std::make_unique<SplashPredictor>(CrashModelOptions());
  if (!ref->Prepare(ds, split).ok()) {
    std::fprintf(stderr, "verify: reference Prepare failed\n");
    return 1;
  }
  {
    TrainerOptions fit = CrashFit();
    StreamTrainer trainer(fit);
    trainer.Fit(ref.get(), ds, split);
    ref->SetTraining(false);
    ref->ResetState();
  }
  EdgeStream ref_log;
  ref_log.EnsureNodeCapacity(ds.stream.num_nodes());
  for (const WalRecord& rec : history) {
    const size_t begin = ref_log.size();
    for (const TemporalEdge& e : rec.edges) {
      if (!ref_log.Append(e).ok()) {
        std::fprintf(stderr, "verify: bad WAL edge\n");
        return 1;
      }
    }
    ref->ObserveBulk(ref_log, begin, ref_log.size());
    if (!rec.train.empty()) {
      ref->SetTraining(true);
      ref->StageBatch(rec.train);
      ref->TrainStaged();
      ref->SetTraining(false);
    }
  }

  SplashService svc(CrashModelOptions(), CrashServiceOptions(data_dir));
  TrainerOptions fit = CrashFit();
  const Status st = svc.RecoverOrStart(ds, split, &fit);
  if (!st.ok()) {
    std::fprintf(stderr, "verify: RecoverOrStart: %s\n", st.message().c_str());
    return 1;
  }
  int failures = 0;
  if (svc.degraded()) {
    std::fprintf(stderr, "verify: service recovered degraded\n");
    ++failures;
  }
  if (svc.recovered_seq() != ref_log.size()) {
    std::fprintf(stderr,
                 "verify: recovered_seq %" PRIu64 " != WAL history %zu\n",
                 svc.recovered_seq(), ref_log.size());
    ++failures;
  }
  const EdgeStream& log = svc.ingest_log();
  if (log.size() != ref_log.size()) {
    std::fprintf(stderr, "verify: log size %zu != %zu\n", log.size(),
                 ref_log.size());
    ++failures;
  } else {
    for (size_t i = 0; i < log.size(); ++i) {
      if (log[i].src != ref_log[i].src || log[i].dst != ref_log[i].dst ||
          log[i].time != ref_log[i].time) {
        std::fprintf(stderr, "verify: log diverges at edge %zu\n", i);
        ++failures;
        break;
      }
    }
  }
  {
    ByteWriter got;
    svc.SerializePredictorState(&got);
    ByteWriter want;
    ref->SerializeState(&want);
    if (got.size() != want.size() ||
        std::memcmp(got.buffer().data(), want.buffer().data(), got.size()) !=
            0) {
      std::fprintf(stderr,
                   "verify: predictor state bytes diverge (%zu vs %zu)\n",
                   got.size(), want.size());
      ++failures;
    }
  }
  {
    ServeClient client(&svc);
    const std::vector<PropertyQuery> probe(ds.queries.end() - 32,
                                           ds.queries.end());
    ServeResponse resp;
    client.Predict(probe, &resp);
    SplashQueryScratch scratch;
    const Matrix& want = ref->PredictBatchConst(probe, &scratch);
    bool same = resp.scores.rows() == want.rows() &&
                resp.scores.cols() == want.cols();
    for (size_t i = 0; same && i < want.size(); ++i) {
      same = resp.scores.data()[i] == want.data()[i];
    }
    if (!same) {
      std::fprintf(stderr, "verify: probe predictions diverge\n");
      ++failures;
    }
  }
  svc.Stop();
  if (failures == 0) {
    std::fprintf(stderr,
                 "verify: OK — %zu WAL batches, %zu edges, bit-exact\n",
                 history.size(), ref_log.size());
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string data_dir;
  std::string mode = "run";
  uint64_t seed = 33;
  size_t max_edges = 0;
  int pace_us = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--data-dir=")) {
      data_dir = v;
    } else if (const char* v = value("--mode=")) {
      mode = v;
    } else if (const char* v = value("--seed=")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--edges=")) {
      max_edges = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--pace-us=")) {
      pace_us = std::atoi(v);
    } else {
      std::fprintf(stderr,
                   "usage: %s --data-dir=DIR [--mode=run|verify] [--seed=N] "
                   "[--edges=N] [--pace-us=N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (data_dir.empty()) {
    std::fprintf(stderr, "--data-dir is required\n");
    return 2;
  }
  ArmCrashPointsFromEnv();
  if (mode == "run") return RunMode(data_dir, seed, max_edges, pace_us);
  if (mode == "verify") return VerifyMode(data_dir, seed);
  std::fprintf(stderr, "unknown --mode=%s\n", mode.c_str());
  return 2;
}

}  // namespace
}  // namespace splash

int main(int argc, char** argv) { return splash::Main(argc, argv); }
