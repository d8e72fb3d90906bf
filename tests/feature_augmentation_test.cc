// Copyright 2026 The SPLASH Reproduction Authors.
//
// FeatureAugmenter: degree encoding (its table rows bit-equal to the
// kernel on every backend), seen/unseen bookkeeping, the
// Eq. (4)-(5) unseen-node propagation semantics, the kept set, and the
// shape checks of checkpoint restore.

#include "core/feature_augmentation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/serialize.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "tensor/simd.h"

namespace splash {
namespace {

EdgeStream TrainStream() {
  // Nodes 0..3 interact during the train period [0, 10].
  EdgeStream s;
  s.Append(TemporalEdge(0, 1, 1.0)).ok();
  s.Append(TemporalEdge(1, 2, 2.0)).ok();
  s.Append(TemporalEdge(2, 3, 3.0)).ok();
  s.Append(TemporalEdge(0, 3, 4.0)).ok();
  s.EnsureNodeCapacity(8);
  return s;
}

TEST(FeatureAugmenterTest, EncodeDegreeIsDeterministicAndDiscriminative) {
  FeatureAugmenterOptions opts;
  opts.feature_dim = 16;
  FeatureAugmenter augmenter(opts);
  std::vector<float> a(16), b(16), c(16);
  augmenter.EncodeDegree(5, a.data());
  augmenter.EncodeDegree(5, b.data());
  augmenter.EncodeDegree(500, c.data());
  float same = 0.0f, diff = 0.0f;
  for (size_t j = 0; j < 16; ++j) {
    EXPECT_TRUE(std::isfinite(a[j]));
    EXPECT_LE(std::fabs(a[j]), 1.0f + 1e-6f);
    same += std::fabs(a[j] - b[j]);
    diff += std::fabs(a[j] - c[j]);
  }
  EXPECT_FLOAT_EQ(same, 0.0f);
  EXPECT_GT(diff, 0.1f);  // different degrees get different codes
}

TEST(FeatureAugmenterTest, DegreeCodesBitEqualTheKernelOnEveryBackend) {
  // Every table degree, the first degrees past the table and a large one:
  // the table rows and the compute path must both be the kernel's bits.
  std::vector<size_t> degrees;
  for (size_t d = 0; d < FeatureAugmenter::kCodedDegrees + 3; ++d) {
    degrees.push_back(d);
  }
  degrees.push_back(1000000);
  const char* backends[] = {"scalar", "avx2", "avx512"};
  const size_t dims[] = {1, 7, 32, 64};
  std::vector<const char*> available;
  std::vector<std::vector<std::unique_ptr<FeatureAugmenter>>> built;
  for (const char* backend : backends) {
    if (!SetKernelBackendForTesting(backend)) continue;  // not on this CPU
    available.push_back(backend);
    built.emplace_back();
    for (const size_t dim : dims) {
      FeatureAugmenterOptions opts;
      opts.feature_dim = dim;
      built.back().push_back(std::make_unique<FeatureAugmenter>(opts));
    }
  }
  ASSERT_FALSE(available.empty());
  // Each augmenter read under each backend, the one it was built under
  // included: a switched backend must not serve the old backend's rows.
  std::vector<float> got(64), want(64);
  for (const char* reader : available) {
    ASSERT_TRUE(SetKernelBackendForTesting(reader));
    for (size_t b = 0; b < available.size(); ++b) {
      for (const auto& augmenter : built[b]) {
        const size_t dim = augmenter->feature_dim();
        for (const size_t d : degrees) {
          augmenter->EncodeDegree(d, got.data());
          // EncodeDegree's expression on the active backend's kernel.
          SincosEncode(std::log1p(static_cast<float>(d)), 0.6f, want.data(),
                       dim);
          ASSERT_EQ(std::memcmp(got.data(), want.data(), dim * sizeof(float)),
                    0)
              << "degree " << d << " dim " << dim << " built under "
              << available[b] << ", read under " << reader;
        }
      }
    }
  }
  ASSERT_TRUE(SetKernelBackendForTesting("auto"));
}

TEST(FeatureAugmenterTest, FitSeenMarksTrainNodesOnly) {
  FeatureAugmenterOptions opts;
  opts.feature_dim = 8;
  FeatureAugmenter augmenter(opts);
  EdgeStream s = TrainStream();
  s.Append(TemporalEdge(4, 5, 20.0)).ok();  // beyond fit time
  augmenter.FitSeen(s, 10.0);
  EXPECT_TRUE(augmenter.seen(0));
  EXPECT_TRUE(augmenter.seen(3));
  EXPECT_FALSE(augmenter.seen(4));
  EXPECT_FALSE(augmenter.seen(5));
}

TEST(FeatureAugmenterTest, SeenRandomFeaturesAreStableNonzero) {
  FeatureAugmenterOptions opts;
  opts.feature_dim = 8;
  FeatureAugmenter augmenter(opts);
  const EdgeStream s = TrainStream();
  augmenter.FitSeen(s, 10.0);
  std::vector<float> f1(8), f2(8);
  augmenter.WriteFeature(AugmentationProcess::kRandom, 1, f1.data());
  augmenter.ObserveEdge(TemporalEdge(0, 1, 11.0));
  augmenter.WriteFeature(AugmentationProcess::kRandom, 1, f2.data());
  float norm = 0.0f, delta = 0.0f;
  for (size_t j = 0; j < 8; ++j) {
    norm += f1[j] * f1[j];
    delta += std::fabs(f1[j] - f2[j]);
  }
  EXPECT_GT(norm, 0.0f);        // seen nodes have real features
  EXPECT_FLOAT_EQ(delta, 0.0f);  // and observing edges never changes them
}

TEST(FeatureAugmenterTest, UnseenNodePropagationIsRunningNeighborMean) {
  FeatureAugmenterOptions opts;
  opts.feature_dim = 8;
  FeatureAugmenter augmenter(opts);
  const EdgeStream s = TrainStream();
  augmenter.FitSeen(s, 10.0);

  std::vector<float> f0(8), f1(8), unseen(8), expect(8);
  augmenter.WriteFeature(AugmentationProcess::kRandom, 0, f0.data());
  augmenter.WriteFeature(AugmentationProcess::kRandom, 1, f1.data());

  // Unseen node 6 starts at zero...
  augmenter.WriteFeature(AugmentationProcess::kRandom, 6, unseen.data());
  for (float v : unseen) EXPECT_FLOAT_EQ(v, 0.0f);

  // ...then becomes the mean of observed neighbors (Eq. (4)-(5)).
  augmenter.ObserveEdge(TemporalEdge(6, 0, 11.0));
  augmenter.WriteFeature(AugmentationProcess::kRandom, 6, unseen.data());
  for (size_t j = 0; j < 8; ++j) EXPECT_NEAR(unseen[j], f0[j], 1e-5f);

  augmenter.ObserveEdge(TemporalEdge(1, 6, 12.0));
  augmenter.WriteFeature(AugmentationProcess::kRandom, 6, unseen.data());
  for (size_t j = 0; j < 8; ++j) {
    expect[j] = 0.5f * (f0[j] + f1[j]);
    EXPECT_NEAR(unseen[j], expect[j], 1e-5f);
  }

  // Reset() forgets the propagation but keeps the seen set.
  augmenter.Reset();
  augmenter.WriteFeature(AugmentationProcess::kRandom, 6, unseen.data());
  for (float v : unseen) EXPECT_FLOAT_EQ(v, 0.0f);
  EXPECT_TRUE(augmenter.seen(0));
}

TEST(FeatureAugmenterTest, StructuralTracksLiveDegree) {
  FeatureAugmenterOptions opts;
  opts.feature_dim = 8;
  FeatureAugmenter augmenter(opts);
  const EdgeStream s = TrainStream();
  augmenter.FitSeen(s, 10.0);  // dynamic state reset: degree 0 everywhere

  std::vector<float> before(8), after(8), code0(8), code1(8);
  augmenter.EncodeDegree(0, code0.data());
  augmenter.EncodeDegree(1, code1.data());
  augmenter.WriteFeature(AugmentationProcess::kStructural, 0, before.data());
  for (size_t j = 0; j < 8; ++j) EXPECT_FLOAT_EQ(before[j], code0[j]);
  augmenter.ObserveEdge(TemporalEdge(0, 1, 11.0));
  augmenter.WriteFeature(AugmentationProcess::kStructural, 0, after.data());
  for (size_t j = 0; j < 8; ++j) EXPECT_FLOAT_EQ(after[j], code1[j]);
}

TEST(FeatureAugmenterTest, PositionalPullsInteractingNodesTogether) {
  FeatureAugmenterOptions opts;
  opts.feature_dim = 8;
  FeatureAugmenter augmenter(opts);
  // Two cliques {0,1,2} and {3,4,5} with no cross edges.
  EdgeStream s;
  double t = 0.0;
  for (int round = 0; round < 6; ++round) {
    s.Append(TemporalEdge(0, 1, t += 1.0)).ok();
    s.Append(TemporalEdge(1, 2, t += 1.0)).ok();
    s.Append(TemporalEdge(0, 2, t += 1.0)).ok();
    s.Append(TemporalEdge(3, 4, t += 1.0)).ok();
    s.Append(TemporalEdge(4, 5, t += 1.0)).ok();
    s.Append(TemporalEdge(3, 5, t += 1.0)).ok();
  }
  augmenter.FitSeen(s, t + 1.0);
  std::vector<float> f0(8), f1(8), f3(8);
  augmenter.WriteFeature(AugmentationProcess::kPositional, 0, f0.data());
  augmenter.WriteFeature(AugmentationProcess::kPositional, 1, f1.data());
  augmenter.WriteFeature(AugmentationProcess::kPositional, 3, f3.data());
  float intra = 0.0f, inter = 0.0f;
  for (size_t j = 0; j < 8; ++j) {
    intra += (f0[j] - f1[j]) * (f0[j] - f1[j]);
    inter += (f0[j] - f3[j]) * (f0[j] - f3[j]);
  }
  EXPECT_LT(intra, inter);  // same-community nodes are closer
}

// A small seen core, then a long tail where each endpoint is unseen with
// probability 1/2: seen-seen, seen-unseen and unseen-unseen edges, the
// last being the bulk replay's deferred folds.
EdgeStream MixedStream(double* fit_time) {
  const size_t n_seen = 48, n_unseen = 400;
  EdgeStream s;
  double t = 0.0;
  for (size_t i = 0; i < 96; ++i) {
    s.Append(TemporalEdge(static_cast<NodeId>(i % n_seen),
                          static_cast<NodeId>((i * 5 + 1) % n_seen), t += 1.0))
        .ok();
  }
  *fit_time = t;
  Rng rng(5);
  auto endpoint = [&] {
    return static_cast<NodeId>(rng.Uniform() < 0.5
                                   ? n_seen + rng.UniformInt(n_unseen)
                                   : rng.UniformInt(n_seen));
  };
  for (size_t i = 0; i < 3000; ++i) {
    const NodeId u = endpoint();
    const NodeId v = endpoint();
    s.Append(TemporalEdge(u, v, t += 1.0)).ok();
  }
  return s;
}

// Keeping only process X gives X's features bit-for-bit as keeping
// everything does, and the same degrees; keeping nothing (S) holds no rows.
void ExpectKeptProcessMatchesFullAugmenter(bool bulk) {
  double fit_time = 0.0;
  const EdgeStream s = MixedStream(&fit_time);
  constexpr size_t kDim = 16;
  struct Case {
    AugmentationProcess process;
    bool random, positional;
  };
  for (const Case& c : {Case{AugmentationProcess::kRandom, true, false},
                        Case{AugmentationProcess::kPositional, false, true},
                        Case{AugmentationProcess::kStructural, false, false}}) {
    SCOPED_TRACE(ProcessName(c.process));
    FeatureAugmenterOptions opts;
    opts.feature_dim = kDim;
    FeatureAugmenter full(opts), only(opts);
    only.Retain(c.random, c.positional);
    full.FitSeen(s, fit_time);
    only.FitSeen(s, fit_time);
    if (bulk) {
      full.ObserveBulk(s, 0, s.size());
      only.ObserveBulk(s, 0, s.size());
    } else {
      for (size_t i = 0; i < s.size(); ++i) {
        full.ObserveEdge(s[i]);
        only.ObserveEdge(s[i]);
      }
    }
    std::vector<float> want(kDim), got(kDim);
    size_t nonzero = 0;
    for (NodeId v = 0; v < s.num_nodes() + 4; ++v) {
      full.WriteFeature(c.process, v, want.data());
      only.WriteFeature(c.process, v, got.data());
      ASSERT_EQ(std::memcmp(want.data(), got.data(), kDim * sizeof(float)), 0)
          << "node " << v;
      ASSERT_EQ(full.degrees().Degree(v), only.degrees().Degree(v))
          << "node " << v;
      nonzero += want[0] != 0.0f;
    }
    EXPECT_GT(nonzero, s.num_nodes() / 2);
    EXPECT_EQ(full.degrees().num_edges(), only.degrees().num_edges());
    EXPECT_EQ(only.keeps(AugmentationProcess::kRandom), c.random);
    EXPECT_EQ(only.keeps(AugmentationProcess::kPositional), c.positional);
    if (c.process == AugmentationProcess::kStructural) {
      EXPECT_EQ(only.feature_row_bytes(), 0u);
      // A dropped process reads as zeros.
      only.WriteFeature(AugmentationProcess::kRandom, 1, got.data());
      for (float x : got) EXPECT_EQ(x, 0.0f);
    } else {
      EXPECT_GT(only.feature_row_bytes(), 0u);
      EXPECT_LT(only.feature_row_bytes(), full.feature_row_bytes());
    }
  }
}

TEST(FeatureAugmenterTest, KeptProcessMatchesFullAugmenterSerial) {
  ExpectKeptProcessMatchesFullAugmenter(/*bulk=*/false);
}

TEST(FeatureAugmenterTest, KeptProcessMatchesFullAugmenterInBulk) {
  ExpectKeptProcessMatchesFullAugmenter(/*bulk=*/true);
}

// An augmenter blob in Serialize's layout for an R-only augmenter (two
// row tables), with every shape chosen by the caller.
struct BlobShape {
  uint8_t mask = 1;
  size_t seen = 10;
  size_t counts = 10;
  size_t rows = 10;
  size_t cols = 8;
  bool truncate = false;
};

std::vector<uint8_t> CraftedBlob(const FeatureAugmenterOptions& opts,
                                 const BlobShape& shape) {
  ByteWriter w;
  w.U64(opts.feature_dim);
  w.U64(opts.seed);
  w.U8(shape.mask);
  w.U8Vec(std::vector<uint8_t>(shape.seen, 1));
  w.U32Vec(std::vector<uint32_t>(shape.counts, 0));
  DegreeTracker(shape.seen).Serialize(&w);
  WriteMatrix(&w, Matrix(shape.seen, opts.feature_dim));
  WriteMatrix(&w, Matrix(shape.rows, shape.cols));
  std::vector<uint8_t> blob = w.buffer();
  if (shape.truncate) blob.resize(blob.size() - sizeof(float));
  return blob;
}

bool Restores(const BlobShape& shape) {
  FeatureAugmenterOptions opts;
  opts.feature_dim = 8;
  FeatureAugmenter augmenter(opts);
  augmenter.Retain(/*random=*/true, /*positional=*/false);
  const std::vector<uint8_t> blob = CraftedBlob(opts, shape);
  ByteReader r(blob);
  return augmenter.Deserialize(&r);
}

TEST(FeatureAugmenterTest, DeserializeRejectsMisshapenRowTables) {
  ASSERT_TRUE(Restores(BlobShape{}));  // the well-formed control
  BlobShape narrow;
  narrow.cols = 4;
  EXPECT_FALSE(Restores(narrow));
  BlobShape short_rows;
  short_rows.rows = 9;
  EXPECT_FALSE(Restores(short_rows));
  BlobShape other_mask;
  other_mask.mask = 3;
  EXPECT_FALSE(Restores(other_mask));
  BlobShape truncated;
  truncated.truncate = true;
  EXPECT_FALSE(Restores(truncated));
  BlobShape short_counts;
  short_counts.counts = 9;
  EXPECT_FALSE(Restores(short_counts));
}

TEST(FeatureAugmenterTest, SerializeRoundTripsTheKeptSet) {
  double fit_time = 0.0;
  const EdgeStream s = MixedStream(&fit_time);
  FeatureAugmenterOptions opts;
  opts.feature_dim = 8;
  FeatureAugmenter src(opts);
  src.Retain(/*random=*/false, /*positional=*/true);
  src.FitSeen(s, fit_time);
  for (size_t i = 0; i < s.size(); ++i) src.ObserveEdge(s[i]);
  ByteWriter w;
  src.Serialize(&w);

  FeatureAugmenter everything(opts);  // keeps R and P: refused
  ByteReader r1(w.buffer());
  EXPECT_FALSE(everything.Deserialize(&r1));

  FeatureAugmenter dst(opts);
  dst.Retain(/*random=*/false, /*positional=*/true);
  ByteReader r2(w.buffer());
  ASSERT_TRUE(dst.Deserialize(&r2));
  ByteWriter again;
  dst.Serialize(&again);
  EXPECT_EQ(again.buffer(), w.buffer());
  EXPECT_EQ(dst.feature_row_bytes(), src.feature_row_bytes());
}

}  // namespace
}  // namespace splash
