// Microbenchmarks (google-benchmark) for the streaming substrates: per-edge
// costs of the neighbor memory, degree tracking, feature propagation, and a
// SLIM forward pass — the constants behind the Fig. 11 linearity claim —
// plus a SLIM train step, the full chronological replay and the bulk
// feature replay. Everything runs on the calling thread.

#include <benchmark/benchmark.h>

#include <limits>
#include <vector>

#include "core/feature_augmentation.h"
#include "core/serialize.h"
#include "core/slim.h"
#include "core/splash.h"
#include "datasets/scalability.h"
#include "eval/trainer.h"
#include "graph/degree_tracker.h"
#include "graph/neighbor_memory.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "tensor/simd.h"

namespace splash {
namespace {

// Swept over node count: the O(1)-per-edge claim (Fig. 11) means these
// times must stay flat (within cache noise) as n grows.
void BM_NeighborMemoryObserve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  NeighborMemory memory(10, n);
  Rng rng(1);
  double t = 0.0;
  size_t i = 0;
  for (auto _ : state) {
    TemporalEdge e(static_cast<NodeId>(rng.UniformInt(n)),
                   static_cast<NodeId>(rng.UniformInt(n)), t += 1.0);
    memory.Observe(e, i++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborMemoryObserve)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

void BM_DegreeTrackerObserve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DegreeTracker tracker(n);
  Rng rng(2);
  double t = 0.0;
  for (auto _ : state) {
    tracker.Observe(TemporalEdge(static_cast<NodeId>(rng.UniformInt(n)),
                                 static_cast<NodeId>(rng.UniformInt(n)),
                                 t += 1.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DegreeTrackerObserve)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

void BM_FeaturePropagationObserve(benchmark::State& state) {
  const size_t dv = state.range(0);
  EdgeStream stream;
  // Half the nodes are unseen (propagation targets).
  const size_t n = 2000;
  double t = 0.0;
  for (size_t i = 0; i < 2000; ++i) {
    stream
        .Append(TemporalEdge(static_cast<NodeId>(i % (n / 2)),
                             static_cast<NodeId>((i * 7) % (n / 2)), t += 1.0))
        .ok();
  }
  stream.EnsureNodeCapacity(n);
  FeatureAugmenterOptions opts;
  opts.feature_dim = dv;
  FeatureAugmenter augmenter(opts);
  augmenter.Retain(/*random=*/true, /*positional=*/false);
  augmenter.FitSeen(stream, t);

  Rng rng(3);
  for (auto _ : state) {
    // Edge touching an unseen node: triggers Eq. (4)-(5) propagation.
    TemporalEdge e(static_cast<NodeId>(n / 2 + rng.UniformInt(n / 2)),
                   static_cast<NodeId>(rng.UniformInt(n / 2)), t += 1.0);
    augmenter.ObserveEdge(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeaturePropagationObserve)->Arg(16)->Arg(32)->Arg(64);

void BM_DegreeEncode(benchmark::State& state) {
  FeatureAugmenterOptions opts;
  opts.feature_dim = 32;
  FeatureAugmenter augmenter(opts);
  EdgeStream stream;
  stream.Append(TemporalEdge(0, 1, 1.0)).ok();
  augmenter.FitSeen(stream, 1.0);
  std::vector<float> out(32);
  size_t degree = 0;
  for (auto _ : state) {
    augmenter.EncodeDegree(++degree, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DegreeEncode);

// Batch assembly at paper dims (fd32/h64/t16/k10) in S mode: each row is
// the queried node's degree code plus up to k neighbors' codes, time
// deltas and mask. Queries are the endpoints of the last observed edges,
// so most neighbor slots are filled. Arg = batch rows.
void BM_StageBatchStructural(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  ScalabilityOptions sopts;
  sopts.num_edges = 20000;
  sopts.num_nodes = 2000;
  const Dataset ds = GenerateScalabilityStream(sopts);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashOptions opts;
  opts.mode = SplashMode::kForceStructural;
  opts.augment.feature_dim = 32;
  opts.slim.hidden_dim = 64;
  opts.slim.time_dim = 16;
  opts.slim.k_recent = 10;
  SplashPredictor model(opts);
  if (!model.Prepare(ds, split).ok()) {
    state.SkipWithError("Prepare failed");
    return;
  }
  const size_t half = ds.stream.size() / 2;
  model.ObserveBulk(ds.stream, 0, half);
  const double now = ds.stream.time_data()[half - 1] + 1.0;
  std::vector<PropertyQuery> queries(batch);
  for (size_t i = 0; i < batch; ++i) {
    const TemporalEdge e = ds.stream[half - 1 - i / 2];
    queries[i] = PropertyQuery{i % 2 == 0 ? e.src : e.dst, now,
                               static_cast<int>(i % 2)};
  }
  for (auto _ : state) {
    model.StageBatch(queries);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_StageBatchStructural)->Arg(24)->Arg(200);

// The checksum every WAL frame and checkpoint pays (serve/wal,
// serve/checkpoint): 4 KiB is a large micro-batch record, 16 MiB the scale
// of a checkpoint payload. Bytes/s is the number to read.
void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)));
  Rng rng(3);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.UniformInt(256));
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32c(buf.data(), buf.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(16 << 20);

// --- kernel-backend rows (Args = m, k, n) ----------------------------------
// Pinned GEMM shapes from the SLIM hot paths, recorded per resolved kernel
// backend (the JSON context carries kernel_backend + cpu_features;
// scripts/bench.sh snapshots scalar and, when available, embeds the avx2
// side-run so the speedup is visible side-by-side in BENCH_micro.json).

void BM_MatMul(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const size_t n = static_cast<size_t>(state.range(2));
  Rng rng(21);
  const Matrix a = Matrix::Gaussian(m, k, &rng);
  const Matrix b = Matrix::Gaussian(k, n, &rng);
  Matrix c(m, n);
  for (auto _ : state) {
    MatMulRange(a, b, &c, 0, m);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
// The neighbor-message GEMM (B*K x Dv+Dt @ W1) and the head GEMM shapes,
// plus a B-exceeds-L2 shape (2048x1024 fp32 B = 8 MB): a multi-row read of
// the wide model streams its row-major weights from memory like this. No
// workload issues such reads (every serve read is one row, and replay and
// ingest train at fd32/h64, where B is <= 32 KB), so the row is recorded,
// not pinned.
BENCHMARK(BM_MatMul)
    ->Args({256, 48, 64})
    ->Args({2560, 48, 64})
    ->Args({32, 2048, 1024});

void BM_MatMulTransA(benchmark::State& state) {
  const size_t r = static_cast<size_t>(state.range(0));
  const size_t m = static_cast<size_t>(state.range(1));
  const size_t n = static_cast<size_t>(state.range(2));
  Rng rng(22);
  const Matrix a = Matrix::Gaussian(r, m, &rng);
  const Matrix b = Matrix::Gaussian(r, n, &rng);
  Matrix c(m, n);
  for (auto _ : state) {
    c.SetZero();  // range calls never zero (the gradient-kernel contract)
    MatMulTransARange(a, b, &c, 0, r);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * r * m * n);
}
// The w3 gradient shape: cat2^T (256x128) x d_h (256x64).
BENCHMARK(BM_MatMulTransA)->Args({256, 128, 64});

void BM_MatMulTransB(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const size_t n = static_cast<size_t>(state.range(2));
  Rng rng(23);
  const Matrix a = Matrix::Gaussian(m, k, &rng);
  const Matrix b = Matrix::Gaussian(n, k, &rng);
  Matrix c(m, n);
  for (auto _ : state) {
    MatMulTransBRange(a, b, &c, 0, m);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
// The d_cat2 backward shape: d_h (256x64) x w3^T (128x64).
BENCHMARK(BM_MatMulTransB)->Args({256, 64, 128});

// The fused forward path the serving layer reads through: PredictConst
// (GEMM + bias + ReLU in one tile pass) on caller scratch.
void BM_SlimForwardFused(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  SlimOptions opts;
  opts.feature_dim = 32;
  opts.time_dim = 16;
  opts.hidden_dim = 64;
  opts.out_dim = 2;
  opts.k_recent = 10;
  opts.dropout = 0.0f;
  Rng rng(24);
  SlimModel slim(opts, &rng);
  slim.SetTraining(false);

  SlimBatchInput input;
  input.node_feats = Matrix::Gaussian(batch, 32, &rng);
  input.neighbor_feats = Matrix::Gaussian(batch * 10, 32, &rng);
  input.time_deltas.assign(batch * 10, 1.0);
  input.mask = Matrix::Ones(batch, 10);
  input.edge_weights.assign(batch * 10, 1.0f);

  SlimForwardScratch scratch;
  for (auto _ : state) {
    const Matrix& out = slim.PredictConst(input, &scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SlimForwardFused)->Arg(256);

// Batch-1, wide hidden (fd=64, h=1024): the serve read shape. A one-row
// forward takes the one-row kernel on every layer (MatMulRowBiasAct),
// which streams each weight row of a nonzero input front to back from the
// row-major weights. The row is gated at >= 1.0x the scalar backend via
// the avx512_speedup side-run stamp (check_bench_regression.py's micro
// preset context floor).
void BM_SlimForwardFusedWideB1(benchmark::State& state) {
  SlimOptions opts;
  opts.feature_dim = 64;
  opts.time_dim = 16;
  opts.hidden_dim = 1024;
  opts.out_dim = 2;
  opts.k_recent = 10;
  opts.dropout = 0.0f;
  Rng rng(27);
  SlimModel slim(opts, &rng);
  slim.SetTraining(false);

  SlimBatchInput input;
  input.node_feats = Matrix::Gaussian(1, 64, &rng);
  input.neighbor_feats = Matrix::Gaussian(10, 64, &rng);
  input.time_deltas.assign(10, 1.0);
  input.mask = Matrix::Ones(1, 10);
  input.edge_weights.assign(10, 1.0f);

  SlimForwardScratch scratch;
  for (auto _ : state) {
    const Matrix& out = slim.PredictConst(input, &scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlimForwardFusedWideB1)->Name("BM_SlimForwardFused/wide_b1");

// One-row PredictBatchConst on the wide serving model (fd64/h1024/k10):
// a node with no neighbor history (its neighbor branch is skipped and the
// head layer reads only the weight rows of nonzero self inputs) and one
// with all k slots valid, both computed (no publish, so no cold-read
// memo); and `cold`, the no-history node after PrepareForPublish, which
// the memo answers.
enum class B1Read { kNoHistory, kFullHistory, kCold };

void BM_PredictB1Wide(benchmark::State& state, B1Read kind) {
  ScalabilityOptions sopts;
  sopts.num_edges = 20000;
  sopts.num_nodes = 2000;
  const Dataset ds = GenerateScalabilityStream(sopts);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashOptions opts;
  opts.mode = SplashMode::kForceStructural;
  opts.augment.feature_dim = 64;
  opts.slim.hidden_dim = 1024;
  opts.slim.time_dim = 16;
  opts.slim.k_recent = 10;
  SplashPredictor model(opts);
  if (!model.Prepare(ds, split).ok()) {
    state.SkipWithError("Prepare failed");
    return;
  }
  // Half the stream observed: early nodes have full rings, late-arriving
  // ones none.
  const size_t half = ds.stream.size() / 2;
  model.ObserveBulk(ds.stream, 0, half);
  const double now = ds.stream.time_data()[half - 1] + 1.0;

  SplashQueryScratch scratch;
  std::vector<PropertyQuery> query(1, PropertyQuery{0, now, 0});
  const size_t want = kind == B1Read::kFullHistory ? opts.slim.k_recent : 0;
  bool found = false;
  for (NodeId v = 0; v < sopts.num_nodes && !found; ++v) {
    query[0].node = v;
    (void)model.PredictBatchConst(query, &scratch);
    size_t valid = 0;
    for (size_t j = 0; j < opts.slim.k_recent; ++j) {
      valid += scratch.batch.mask(0, j) != 0.0f;
    }
    found = valid == want;
  }
  if (!found) {
    state.SkipWithError("no node with the wanted history");
    return;
  }
  if (kind == B1Read::kCold) {
    model.PrepareForPublish();
    (void)model.PredictBatchConst(query, &scratch);
    if (!scratch.cold_read) {
      state.SkipWithError("the memo did not answer the no-history node");
      return;
    }
  }
  for (auto _ : state) {
    const Matrix& out = model.PredictBatchConst(query, &scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_PredictB1Wide, no_history, B1Read::kNoHistory)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PredictB1Wide, full_history, B1Read::kFullHistory)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PredictB1Wide, cold, B1Read::kCold)
    ->Unit(benchmark::kMicrosecond);

void BM_SlimForward(benchmark::State& state) {
  const size_t batch = state.range(0);
  SlimOptions opts;
  opts.feature_dim = 32;
  opts.time_dim = 16;
  opts.hidden_dim = 64;
  opts.out_dim = 2;
  opts.k_recent = 10;
  opts.dropout = 0.0f;
  Rng rng(4);
  SlimModel slim(opts, &rng);
  slim.SetTraining(false);

  SlimBatchInput input;
  input.node_feats = Matrix::Gaussian(batch, 32, &rng);
  input.neighbor_feats = Matrix::Gaussian(batch * 10, 32, &rng);
  input.time_deltas.assign(batch * 10, 1.0);
  input.mask = Matrix::Ones(batch, 10);
  input.edge_weights.assign(batch * 10, 1.0f);

  for (auto _ : state) {
    Matrix out = slim.Forward(input);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SlimForward)->Arg(1)->Arg(32)->Arg(256);

// One-thread SLIM train step at paper dims (fd32, td16, h64, k10), dropout
// 0.1 and a third of the neighbor slots masked. Arg = batch rows: 25 is the
// ingest workload's train batch, 200 the replay workload's Fit batch.
void BM_SlimTrainStep(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  SlimOptions opts;
  opts.feature_dim = 32;
  opts.time_dim = 16;
  opts.hidden_dim = 64;
  opts.out_dim = 2;
  opts.k_recent = 10;
  opts.dropout = 0.1f;
  Rng rng(28);
  SlimModel slim(opts, &rng);
  SlimTrainState train(opts);
  slim.SetTraining(true);

  SlimBatchInput input;
  input.node_feats = Matrix::Gaussian(batch, 32, &rng);
  input.neighbor_feats = Matrix::Gaussian(batch * 10, 32, &rng);
  input.time_deltas.assign(batch * 10, 1.0);
  input.mask = Matrix::Ones(batch, 10);
  for (size_t i = 0; i < batch; ++i) {
    for (size_t j = 0; j < 10; ++j) {
      if ((i + j) % 3 == 0) input.mask(i, j) = 0.0f;
    }
  }
  input.edge_weights.assign(batch * 10, 1.0f);
  std::vector<int> labels(batch);
  for (size_t i = 0; i < batch; ++i) labels[i] = static_cast<int>(i % 2);

  for (auto _ : state) {
    benchmark::DoNotOptimize(slim.TrainStep(input, labels, &train));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SlimTrainStep)->Arg(25)->Arg(200);

// Adam over SLIM's paper-dim parameter count with a quarter of the moments
// on the subnormal fixed point a zero gradient decays them to (0.9 * m
// rounds back to m at a few x 2^-149), the state a long ingest run leaves.
void BM_AdamUpdateSubnormal(benchmark::State& state) {
  SlimOptions opts;
  opts.feature_dim = 32;
  opts.time_dim = 16;
  opts.hidden_dim = 64;
  opts.out_dim = 2;
  Rng rng(29);
  const size_t n = SlimModel(opts, &rng).ParamCount();
  std::vector<float> w(n), g(n), m(n), v(n);
  rng.FillGaussian(w.data(), n, 0.1f);
  rng.FillGaussian(g.data(), n, 1e-2f);
  rng.FillGaussian(m.data(), n, 1e-3f);
  const float sub = std::numeric_limits<float>::denorm_min() * 3.0f;
  for (size_t i = 0; i < n; ++i) {
    v[i] = g[i] * g[i];
    if (i % 4 == 0) {
      g[i] = 0.0f;
      m[i] = sub;
      v[i] = sub;
    }
  }
  for (auto _ : state) {
    AdamUpdate(w.data(), g.data(), m.data(), v.data(), n, 1e-3f, 0.9f,
               0.999f, 1e-8f);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AdamUpdateSubnormal)->Name("BM_AdamUpdate/subnormal");

// --- gated whole-path rows ---------------------------------------------------
// The micro gate (scripts/check_bench_regression.py) pins these three under
// their "/1" names, which once meant one pool thread; the Arg is now unused
// and the names stay until BENCH_micro.json is re-recorded.

void BM_SlimTrainStepThreads(benchmark::State& state) {
  const size_t batch = 256;
  SlimOptions opts;
  opts.feature_dim = 32;
  opts.time_dim = 16;
  opts.hidden_dim = 64;
  opts.out_dim = 2;
  opts.k_recent = 10;
  opts.dropout = 0.1f;
  Rng rng(4);
  SlimModel slim(opts, &rng);
  SlimTrainState train(opts);
  slim.SetTraining(true);

  SlimBatchInput input;
  input.node_feats = Matrix::Gaussian(batch, 32, &rng);
  input.neighbor_feats = Matrix::Gaussian(batch * 10, 32, &rng);
  input.time_deltas.assign(batch * 10, 1.0);
  input.mask = Matrix::Ones(batch, 10);
  input.edge_weights.assign(batch * 10, 1.0f);
  std::vector<int> labels(batch);
  for (size_t i = 0; i < batch; ++i) labels[i] = static_cast<int>(i % 2);

  for (auto _ : state) {
    benchmark::DoNotOptimize(slim.TrainStep(input, labels, &train));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SlimTrainStepThreads)->Arg(1);

void BM_ChronoReplayThreads(benchmark::State& state) {
  ScalabilityOptions sopts;
  sopts.num_edges = 20000;
  sopts.num_nodes = 1000;
  const Dataset ds = GenerateScalabilityStream(sopts);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);

  for (auto _ : state) {
    SplashOptions opts;
    opts.mode = SplashMode::kForceStructural;  // streaming-only features
    opts.augment.feature_dim = 16;
    opts.slim.hidden_dim = 32;
    opts.slim.time_dim = 8;
    SplashPredictor model(opts);
    benchmark::DoNotOptimize(model.Prepare(ds, split).ok());
    TrainerOptions topts;
    topts.epochs = 1;
    topts.early_stopping = false;
    StreamTrainer trainer(topts);
    trainer.Fit(&model, ds, split);
    benchmark::DoNotOptimize(trainer.Evaluate(&model, ds, split).metric);
  }
  state.SetItemsProcessed(state.iterations() * ds.stream.size());
}
BENCHMARK(BM_ChronoReplayThreads)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FeatureReplayBulkThreads(benchmark::State& state) {
  // Propagation-heavy replay: 20% of nodes are seen, the rest arrive
  // during the stream, so most edges trigger Eq. (4)-(5) folds.
  const size_t n_seen = 2000, n_unseen = 8000;
  EdgeStream stream;
  Rng rng(6);
  double t = 0.0;
  for (size_t i = 0; i < 4000; ++i) {
    stream
        .Append(TemporalEdge(static_cast<NodeId>(rng.UniformInt(n_seen)),
                             static_cast<NodeId>(rng.UniformInt(n_seen)),
                             t += 1.0))
        .ok();
  }
  const double fit_time = t;
  for (size_t i = 0; i < 100000; ++i) {
    // Mostly unseen->seen (the paper's Eq. (4)-(5) scenario: a new node
    // joins the fitted graph) with 5% unseen->unseen pairs.
    const NodeId u = static_cast<NodeId>(
        rng.Uniform() < 0.5 ? n_seen + rng.UniformInt(n_unseen)
                            : rng.UniformInt(n_seen));
    const NodeId v = static_cast<NodeId>(
        rng.Uniform() < 0.1 ? n_seen + rng.UniformInt(n_unseen)
                            : rng.UniformInt(n_seen));
    stream.Append(TemporalEdge(u, v, t += 1.0)).ok();
  }
  FeatureAugmenterOptions opts;
  opts.feature_dim = 32;
  FeatureAugmenter augmenter(opts);
  augmenter.FitSeen(stream, fit_time);

  for (auto _ : state) {
    augmenter.Reset();  // O(nodes) memset
    augmenter.ObserveBulk(stream, 0, stream.size());
  }
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_FeatureReplayBulkThreads)->Arg(1);

}  // namespace
}  // namespace splash

// Custom main: records the resolved kernel backend and the host's cpuid
// feature summary in the JSON context, so every committed snapshot is
// attributable to (backend, ISA) and check_bench_regression.py can refuse
// to compare unlike backends.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("kernel_backend", splash::KernelBackendName());
  benchmark::AddCustomContext("cpu_features", splash::CpuFeatureString());
  benchmark::AddCustomContext("cache_topology", splash::CacheTopologyString());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
