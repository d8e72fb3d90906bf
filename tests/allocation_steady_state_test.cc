// Copyright 2026 The SPLASH Reproduction Authors.
//
// Counting-allocator gate for the per-edge complexity contract (DESIGN.md
// §3): NeighborMemory::Observe and SlimModel::TrainStep must perform ZERO
// heap allocations at steady state. Global operator new/delete are
// replaced with counting
// shims that also sum the requested bytes, which pins the footprint of a
// read-only SLIM copy, of S-mode streaming state (DESIGN.md §5) and of a
// buffer's first allocation; a scoped flag confines the assertion to the
// measured region. The serve read path is gated end to end too: ServeClient
// calls on a started service allocate nothing at steady state, and a
// checkpoint write allocates the same few bytes whatever the log's length.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/feature_augmentation.h"
#include "core/slim.h"
#include "core/splash.h"
#include "datasets/scalability.h"
#include "datasets/synthetic.h"
#include "eval/trainer.h"
#include "graph/edge_stream.h"
#include "graph/neighbor_memory.h"
#include "serve/checkpoint.h"
#include "serve/service.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "tensor/simd.h"
#include "tests/serve_test_util.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_alloc_count{0};
std::atomic<size_t> g_alloc_bytes{0};

void* CountedAlloc(size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace splash {
namespace {

/// Bytes requested from operator new while running `fn`; the number of
/// allocations goes to *count when non-null.
template <typename Fn>
size_t AllocatedBytes(const Fn& fn, size_t* count = nullptr) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  fn();
  g_counting.store(false, std::memory_order_seq_cst);
  if (count != nullptr) *count = g_alloc_count.load(std::memory_order_relaxed);
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

/// Allocations observed while running `fn`.
template <typename Fn>
size_t CountAllocations(const Fn& fn) {
  size_t count = 0;
  AllocatedBytes(fn, &count);
  return count;
}

TEST(AllocationSteadyStateTest, NeighborMemoryObserveIsAllocationFree) {
  const size_t n = 4096;
  NeighborMemory memory(10, n);
  Rng rng(1);
  double t = 0.0;
  // Warm-up inside capacity (the hint pre-sized the slab).
  for (size_t i = 0; i < 1000; ++i) {
    memory.Observe(TemporalEdge(static_cast<NodeId>(rng.UniformInt(n)),
                                static_cast<NodeId>(rng.UniformInt(n)),
                                t += 1.0));
  }
  const size_t allocs = CountAllocations([&] {
    for (size_t i = 0; i < 100000; ++i) {
      memory.Observe(TemporalEdge(static_cast<NodeId>(rng.UniformInt(n)),
                                  static_cast<NodeId>(rng.UniformInt(n)),
                                  t += 1.0));
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocationSteadyStateTest, SlimTrainStepIsAllocationFree) {
  SlimOptions opts;
  opts.feature_dim = 32;
  opts.hidden_dim = 64;
  opts.k_recent = 10;
  opts.dropout = 0.1f;
  Rng rng(4);
  SlimModel model(opts, &rng);
  SlimTrainState train(opts);
  model.SetTraining(true);

  const size_t b = 192;
  SlimBatchInput input;
  input.Resize(opts, b, /*weighted=*/false);
  rng.FillGaussian(input.node_feats.data(), b * 32, 1.0f);
  for (size_t r = 0; r < b * 10; ++r) {
    rng.FillGaussian(input.cat1.Row(r), 32, 1.0f);
  }
  input.time_x.assign(b * 10, std::log1p(1.0f));
  input.valid.assign(b, 10);
  std::vector<int> labels(b);
  for (size_t i = 0; i < b; ++i) labels[i] = static_cast<int>(i % 2);

  // Warm-up: grows the activation scratch and the gradients to this batch
  // size.
  model.TrainStep(&input, labels, &train);
  model.TrainStep(&input, labels, &train);

  const size_t allocs = CountAllocations([&] {
    for (int step = 0; step < 10; ++step) {
      model.TrainStep(&input, labels, &train);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocationSteadyStateTest, ReadOnlySlimCopyHoldsOnlyItsWeights) {
  // A serve replica's SLIM is a read-only copy: it shares its source's
  // eight parameter matrices until its first write, and allocates nothing
  // (its activation scratch starts empty). The Adam moments and gradients
  // live in the one SlimTrainState its service owns. The first write gives
  // the copy one weight block of its own: each parameter one allocation
  // of whole 64 B lines plus one line of alignment slack, and one more
  // allocation for the block that holds them. The shape is the wide
  // serving model (fd64/h1024).
  SlimOptions opts;
  opts.feature_dim = 64;
  opts.time_dim = 16;
  opts.hidden_dim = 1024;
  opts.k_recent = 10;
  Rng rng(8);
  SlimModel src(opts, &rng);
  constexpr size_t kLine = AlignedBuffer::kAlignment;
  const size_t dv = opts.feature_dim, h = opts.hidden_dim, o = opts.out_dim;
  // w1 b1 w2 b2 w3 b3 w4 b4, as core/slim.cc shapes them.
  const size_t sizes[] = {(dv + opts.time_dim) * h, h, dv * h, h,
                          2 * h * h, h, h * o, o};
  size_t weight_bytes = 0, params = 0;
  for (const size_t n : sizes) {
    weight_bytes += ((n * sizeof(float) + kLine - 1) / kLine + 1) * kLine;
    params += n;
  }
  ASSERT_EQ(params, src.ParamCount());
  const SlimTrainState train(opts);
  auto bytes_of = [&](const SlimModel& m) {
    ByteWriter w;
    m.Serialize(&w, train);
    return w.buffer();
  };
  const std::vector<uint8_t> src_bytes = bytes_of(src);

  // In place, so the count holds what the copy allocates, not the object.
  Rng copy_rng(9);
  std::optional<SlimModel> copy;
  EXPECT_EQ(AllocatedBytes([&] { copy.emplace(src, &copy_rng); }), 0u)
      << "the read-only copy allocated instead of sharing the weights";
  ASSERT_EQ(copy->ParamCount(), src.ParamCount());
  EXPECT_EQ(bytes_of(*copy), src_bytes);
  // Copying from the model it shares with writes nothing.
  EXPECT_EQ(AllocatedBytes([&] { copy->CopyLearnedStateFrom(src); }), 0u);

  // The first write: a third model's weights.
  Rng other_rng(10);
  const SlimModel other(opts, &other_rng);
  size_t allocations = 0;
  const size_t bytes = AllocatedBytes(
      [&] { copy->CopyLearnedStateFrom(other); }, &allocations);
  EXPECT_EQ(allocations, SlimTrainState::kNumParams + 1);
  EXPECT_GE(bytes, weight_bytes);
  EXPECT_LE(bytes, weight_bytes + 1024)
      << "the first write allocated more than one weight block";
  EXPECT_EQ(bytes_of(*copy), bytes_of(other));
  EXPECT_EQ(bytes_of(src), src_bytes) << "the write reached the source";
  // The block is private now: the next write allocates nothing.
  EXPECT_EQ(CountAllocations([&] { copy->CopyLearnedStateFrom(src); }), 0u);
  EXPECT_EQ(bytes_of(*copy), src_bytes);
}

TEST(AllocationSteadyStateTest, NeverSteppedTrainStateHoldsNoMoments) {
  // A train state allocates its Adam moments at its first step, so a
  // service with training off holds no optimizer bytes; the moments it
  // serializes until then are zero matrices, as the first step's are.
  SlimOptions opts;
  opts.feature_dim = 64;
  opts.time_dim = 16;
  opts.hidden_dim = 1024;
  opts.k_recent = 10;
  std::optional<SlimTrainState> train, copy;
  EXPECT_EQ(AllocatedBytes([&] { train.emplace(opts); }), 0u);
  EXPECT_EQ(AllocatedBytes([&] { copy.emplace(*train); }), 0u);
  EXPECT_FALSE(train->has_moments());

  // Small widths for the step itself.
  opts.hidden_dim = 16;
  Rng rng(11);
  SlimModel model(opts, &rng);
  SlimTrainState small(opts);
  const SlimTrainState untouched(opts);
  ByteWriter before;
  model.Serialize(&before, small);
  // The step-0 stream's moments are all zero bytes.
  ByteReader r(before.buffer());
  r.U64();
  for (size_t p = 0; p < SlimTrainState::kNumParams; ++p) {
    for (int matrix = 0; matrix < 3; ++matrix) {
      const uint64_t rows = r.U64(), cols = r.U64();
      const size_t n = static_cast<size_t>(rows * cols) * sizeof(float);
      const uint8_t* bytes = r.Span(n);
      ASSERT_NE(bytes, nullptr);
      if (matrix > 0) {
        EXPECT_TRUE(std::all_of(bytes, bytes + n,
                                [](uint8_t b) { return b == 0; }))
            << "param " << p << " moment " << matrix;
      }
    }
  }
  EXPECT_TRUE(r.AtEnd());

  const size_t b = 4;
  SlimBatchInput input;
  input.Resize(opts, b, /*weighted=*/false);
  rng.FillGaussian(input.node_feats.data(), b * opts.feature_dim, 1.0f);
  input.time_x.assign(b * opts.k_recent, 0.0f);
  input.valid.assign(b, 0);
  const std::vector<int> labels = {0, 1, 0, 1};
  model.SetTraining(true);
  model.TrainStep(&input, labels, &small);
  EXPECT_TRUE(small.has_moments());
  EXPECT_FALSE(untouched.has_moments());
  // A copy from a state that never stepped releases the moments again.
  small.CopyFrom(untouched);
  EXPECT_FALSE(small.has_moments());
  ByteWriter after;
  model.Serialize(&after, small);
  EXPECT_EQ(after.size(), before.size());
}

TEST(AllocationSteadyStateTest, FirstAllocationHoldsWholeLinesNotPowersOfTwo) {
  // A buffer's first allocation is its size rounded up to whole 64 B lines
  // (plus one line of alignment slack), so weights, moments and one-row
  // scratch, which never grow, hold what they use.
  constexpr size_t kLine = AlignedBuffer::kAlignment;
  for (const size_t n : {size_t{1}, size_t{16}, size_t{17}, size_t{1000},
                         size_t{81920}}) {
    AlignedBuffer buf;
    const size_t lines = (n * sizeof(float) + kLine - 1) / kLine;
    EXPECT_EQ(AllocatedBytes([&] { buf.Resize(n); }), (lines + 1) * kLine)
        << n << " floats";
  }
  EXPECT_EQ(AllocatedBytes([] { Matrix w(80, 1024); }),
            80 * 1024 * sizeof(float) + kLine);

  // Growth past the first allocation still doubles, so grow-only scratch
  // reallocates O(log n) times.
  AlignedBuffer grown;
  grown.Resize(1000);
  EXPECT_EQ(AllocatedBytes([&] { grown.Resize(1009); }),
            2 * 1008 * sizeof(float) + kLine);
  EXPECT_EQ(CountAllocations([&] { grown.Resize(2016); }), 0u);
}

TEST(AllocationSteadyStateTest, StructuralStreamingStateIgnoresFeatureDim) {
  // An S-mode replica reads only degree counters and neighbor rings, so
  // its streaming state holds no feature_dim-wide rows: copies of the same
  // predictor at fd32 and fd64 over the same stream differ only by SLIM's
  // weights. SLIM's share is measured as a read-only copy of a
  // standalone model of the same architecture.
  ScalabilityOptions sopts;
  sopts.num_edges = 4000;
  sopts.num_nodes = 512;
  const Dataset ds = GenerateScalabilityStream(sopts);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  size_t streaming_bytes[2] = {0, 0};
  const size_t dims[2] = {32, 64};
  for (size_t i = 0; i < 2; ++i) {
    SplashOptions opts;
    opts.mode = SplashMode::kForceStructural;
    opts.augment.feature_dim = dims[i];
    opts.slim.hidden_dim = 32;
    opts.slim.time_dim = 8;
    SplashPredictor model(opts);
    ASSERT_TRUE(model.Prepare(ds, split).ok());
    ASSERT_NE(model.ReleaseTrainState(), nullptr);
    model.ObserveBulk(ds.stream, 0, ds.stream.size());
    std::unique_ptr<SplashPredictor> copy;
    const size_t copy_bytes = AllocatedBytes(
        [&] { copy = std::make_unique<SplashPredictor>(model); });

    SlimOptions so = opts.slim;
    so.feature_dim = model.input_dim();
    so.k_recent = model.memory().k();
    so.out_dim = model.out_dim();
    Rng rng(8), copy_rng(9);
    SlimModel slim(so, &rng);
    std::unique_ptr<SlimModel> slim_copy;
    const size_t slim_bytes = AllocatedBytes(
        [&] { slim_copy = std::make_unique<SlimModel>(slim, &copy_rng); });
    ASSERT_GT(copy_bytes, slim_bytes);
    streaming_bytes[i] = copy_bytes - slim_bytes;
  }
  EXPECT_EQ(streaming_bytes[0], streaming_bytes[1])
      << "S-mode streaming state grew with feature_dim";
}

TEST(AllocationSteadyStateTest, AugmentersOfOneWidthShareOneDegreeCodeTable) {
  // The degree-code table is built once per process and width: the first
  // augmenter of a width no other test here uses pays for it, a second one
  // of the same width allocates only its own small scratch.
  FeatureAugmenterOptions opts;
  opts.feature_dim = 40;
  const size_t table_bytes =
      FeatureAugmenter::kCodedDegrees * opts.feature_dim * sizeof(float);
  std::unique_ptr<FeatureAugmenter> first, second;
  const size_t first_bytes = AllocatedBytes(
      [&] { first = std::make_unique<FeatureAugmenter>(opts); });
  const size_t second_bytes = AllocatedBytes(
      [&] { second = std::make_unique<FeatureAugmenter>(opts); });
  EXPECT_GE(first_bytes, table_bytes);
  EXPECT_LT(second_bytes, table_bytes);
}

TEST(AllocationSteadyStateTest, FeatureAugmenterObserveBulkIsAllocationFree) {
  // The bulk replay must be grow-only: after a warm-up pass sized the
  // node tables, repeated ObserveBulk calls allocate nothing.
  const size_t n_seen = 64, n_unseen = 1024;
  EdgeStream stream;
  double t = 0.0;
  for (size_t i = 0; i < 128; ++i) {
    stream
        .Append(TemporalEdge(static_cast<NodeId>(i % n_seen),
                             static_cast<NodeId>((i * 5) % n_seen), t += 1.0))
        .ok();
  }
  const double fit_time = t;
  Rng rng(11);
  for (size_t i = 0; i < 20000; ++i) {
    // Seen-seen, unseen-seen, and unseen-unseen edges: exercises the
    // degree-only path and both kinds of fold.
    const NodeId u = static_cast<NodeId>(
        rng.Uniform() < 0.5 ? n_seen + rng.UniformInt(n_unseen)
                            : rng.UniformInt(n_seen));
    const NodeId v = static_cast<NodeId>(
        rng.Uniform() < 0.5 ? n_seen + rng.UniformInt(n_unseen)
                            : rng.UniformInt(n_seen));
    stream.Append(TemporalEdge(u, v, t += 1.0)).ok();
  }

  FeatureAugmenterOptions opts;
  opts.feature_dim = 16;
  FeatureAugmenter augmenter(opts);
  augmenter.FitSeen(stream, fit_time);
  // Warm-up: grows the node tables to this stream's high-water mark.
  augmenter.ObserveBulk(stream, 0, stream.size());
  augmenter.Reset();

  const size_t allocs = CountAllocations(
      [&] { augmenter.ObserveBulk(stream, 0, stream.size()); });
  EXPECT_EQ(allocs, 0u);
}

// The aligned/padded scratch introduced by the SIMD backends must stay
// grow-only under each of them too: Observe, TrainStep, the publish that
// recomputes the cold-read memo after it, the serve read path
// (PredictBatchConst with per-client scratch, cold reads from the memo
// included), the serve catch-up's model copy (CopyModelFrom into a
// read-only replica, memo included) and an offline twin's copy (moments
// included) perform zero heap allocations at steady state regardless of
// the dispatched kernel table.
void RunSlimAndServeAllocationGate() {
  ScalabilityOptions sopts;
  sopts.num_edges = 4000;
  sopts.num_nodes = 512;
  const Dataset ds = GenerateScalabilityStream(sopts);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  SplashOptions opts;
  opts.mode = SplashMode::kForceStructural;
  opts.augment.feature_dim = 16;
  opts.slim.hidden_dim = 32;
  opts.slim.time_dim = 8;
  opts.slim.dropout = 0.1f;
  SplashPredictor model(opts);
  ASSERT_TRUE(model.Prepare(ds, split).ok());
  model.SetTraining(true);
  model.ObserveBulk(ds.stream, 0, ds.stream.size() / 2);
  SplashPredictor twin(opts);
  ASSERT_TRUE(twin.Prepare(ds, split).ok());
  // The catch-up replica: its train state handed off, as the service does.
  SplashPredictor replica(opts);
  ASSERT_TRUE(replica.Prepare(ds, split).ok());
  ASSERT_NE(replica.ReleaseTrainState(), nullptr);

  std::vector<PropertyQuery> queries(64);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].node = static_cast<NodeId>(i * 7 % sopts.num_nodes);
    queries[i].time = ds.stream.time_data()[ds.stream.size() / 2 - 1] + 1.0;
    queries[i].class_label = static_cast<int>(i % 2);
  }

  // Warm-up grows every scratch: train path, const query path, ingest.
  model.TrainBatch(queries);
  SplashQueryScratch scratch;
  (void)model.PredictBatchConst(queries, &scratch);
  (void)model.PredictBatchConst(queries, &scratch);
  model.TrainBatch(queries);
  model.PrepareForPublish();
  ASSERT_TRUE(twin.CopyModelFrom(model).ok());
  ASSERT_TRUE(replica.CopyModelFrom(model).ok());

  // One-row reads take the one-row kernels and their index scratch, which
  // the batched warm-up above must already have grown: one query for a
  // node no observed edge touches (no neighbor rows at all) and one for a
  // node with history.
  const size_t mid = ds.stream.size() / 2;
  std::vector<bool> seen(sopts.num_nodes, false);
  for (size_t i = 0; i < mid; ++i) {
    seen[ds.stream[i].src] = true;
    seen[ds.stream[i].dst] = true;
  }
  std::vector<PropertyQuery> no_history(1, queries[0]);
  std::vector<PropertyQuery> with_history(1, queries[0]);
  const auto unseen = std::find(seen.begin(), seen.end(), false);
  ASSERT_NE(unseen, seen.end()) << "every node has history";
  no_history[0].node = static_cast<NodeId>(unseen - seen.begin());
  with_history[0].node = static_cast<NodeId>(
      std::find(seen.begin(), seen.end(), true) - seen.begin());

  // The train step leaves the memo stale, so the no-history read computes;
  // after the publish the same read comes from the memo.
  bool copied = true, computed = true, cold = true;
  const size_t allocs = CountAllocations([&] {
    for (int rep = 0; rep < 5; ++rep) {
      model.TrainBatch(queries);
      (void)model.PredictBatchConst(queries, &scratch);
      (void)model.PredictBatchConst(no_history, &scratch);
      computed = !scratch.cold_read && computed;
      (void)model.PredictBatchConst(with_history, &scratch);
      model.PrepareForPublish();
      (void)model.PredictBatchConst(no_history, &scratch);
      cold = scratch.cold_read && cold;
      copied = twin.CopyModelFrom(model).ok() && copied;
      copied = replica.CopyModelFrom(model).ok() && copied;
    }
    for (size_t i = mid; i < ds.stream.size(); ++i) {
      model.ObserveEdge(ds.stream[i], i);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(copied);
  EXPECT_TRUE(computed) << "a stale memo answered";
  EXPECT_TRUE(cold) << "the memo did not answer the untouched node";
}

TEST(AllocationSteadyStateTest, SlimAndServePathsAllocationFreeUnderAvx2) {
  if (!SetKernelBackendForTesting("avx2")) {
    GTEST_SKIP() << "no AVX2/FMA backend on this host";
  }
  RunSlimAndServeAllocationGate();
  ASSERT_TRUE(SetKernelBackendForTesting("auto"));
}

TEST(AllocationSteadyStateTest, SlimAndServePathsAllocationFreeUnderAvx512) {
  if (!SetKernelBackendForTesting("avx512")) {
    GTEST_SKIP() << "no AVX-512 backend on this host";
  }
  RunSlimAndServeAllocationGate();
  ASSERT_TRUE(SetKernelBackendForTesting("auto"));
}

TEST(AllocationSteadyStateTest, ServeClientReadsAreAllocationFree) {
  // Every ServeClient endpoint on a started service, with reused
  // responses (their score matrices are grow-only): a batched Predict, a
  // one-row read of a node with history and a cold read the memo
  // answers.
  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 150;
  cfg.num_edges = 1500;
  cfg.num_communities = 3;
  cfg.query_rate = 0.25;
  cfg.seed = 21;
  const Dataset ds = GenerateSynthetic(cfg);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  std::vector<TemporalEdge> live;
  for (size_t i = 0; i < ds.stream.size(); ++i) {
    if (ds.stream[i].time > split.val_end_time) live.push_back(ds.stream[i]);
  }
  ASSERT_GT(live.size(), 100u);
  SplashOptions opts;
  opts.mode = SplashMode::kForceStructural;
  opts.augment.feature_dim = 12;
  opts.slim.hidden_dim = 24;
  opts.slim.time_dim = 8;
  opts.slim.k_recent = 5;
  opts.slim.dropout = 0.0f;
  opts.seed = 5;
  SplashService service(opts, SplashServiceOptions());
  ASSERT_TRUE(service.Start(ds, split, nullptr).ok());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(service.IngestEdge(live[i]).accepted());
  }
  service.Flush();

  ServeClient client(&service);
  const std::vector<PropertyQuery> probe(ds.queries.end() - 16,
                                         ds.queries.end());
  const NodeId untouched = static_cast<NodeId>(ds.stream.num_nodes() + 100);
  const double t_end = ds.stream.max_time();
  ServeResponse resp, node_resp, cold_resp;

  // Warm-up grows the client scratch, the responses and the endpoint
  // query scratch to their steady-state sizes.
  client.Predict(probe, &resp);
  client.PredictNode(live[0].src, t_end, &node_resp);
  client.PredictNode(untouched, t_end, &cold_resp);

  constexpr int kRounds = 200;
  const uint64_t cold_before = service.Counters().cold_reads;
  const size_t allocs = CountAllocations([&] {
    for (int i = 0; i < kRounds; ++i) {
      client.Predict(probe, &resp);
      client.PredictNode(live[i % 100].src, t_end, &node_resp);
      client.PredictNode(untouched, t_end, &cold_resp);
    }
  });
  const ServeCounters c = service.Counters();
  service.Stop();
  EXPECT_EQ(allocs, 0u)
      << "the ServeClient read path must stay allocation-free at steady state";
  EXPECT_EQ(c.cold_reads - cold_before, static_cast<uint64_t>(kRounds))
      << "the untouched node was not answered by the cold-read memo";
  EXPECT_EQ(resp.watermark_seq, 100u);
  EXPECT_EQ(cold_resp.scores.rows(), 1u);
}

TEST(AllocationSteadyStateTest, CheckpointWriteAllocationsIgnoreTheLogSize) {
  // WriteCheckpoint streams the log's columns to the file from where they
  // live, so its heap use is the paths and the GC listing: the same few
  // hundred bytes for a 1M-edge log as for a 1k-edge one, never a copy of
  // the 16 B/edge log.
  const auto make_log = [](size_t n) {
    EdgeStream log;
    log.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(log.Append(TemporalEdge(static_cast<NodeId>(i % 5000),
                                          static_cast<NodeId>(i % 4999),
                                          static_cast<double>(i)))
                      .ok());
    }
    return log;
  };
  const std::vector<uint8_t> seen(5000, 1);
  const std::vector<uint8_t> blob(4096, 7);
  const auto checkpoint_bytes = [&](const EdgeStream& log) {
    TempDir dir;
    bool ok = false;
    const size_t bytes = AllocatedBytes([&] {
      ok = WriteCheckpoint(dir.path(), log.size(), 1, log.max_time(), log,
                           seen, blob)
               .ok();
    });
    EXPECT_TRUE(ok);
    return bytes;
  };
  const size_t small = checkpoint_bytes(make_log(1000));
  const size_t large = checkpoint_bytes(make_log(1000000));
  constexpr size_t kBound = 64 * 1024;
  EXPECT_LT(small, kBound);
  EXPECT_LT(large, kBound) << "a 1M-edge checkpoint copied its payload";
  EXPECT_EQ(large, small);
}

}  // namespace
}  // namespace splash
