// Copyright 2026 The SPLASH Reproduction Authors.
//
// Contracts of the cache-aware packed-B GEMM tier (tensor/packed.h):
//   1. Packing is a pure re-tiling — every element of B is recoverable
//      from its (k-block, panel) slot and dead panel lanes are zero,
//      across ragged shapes in every dimension.
//   2. Packed kernels are BIT-identical to the unpacked kernels on the
//      same backend (scalar, avx2, avx512), including multi-k-block
//      shapes, accumulate, and the fused bias/ReLU epilogue.
//   3. The one-row kernel, which skips zero inputs, is bit-identical to
//      the dense kernels' rows, packed or row-major B, on every backend.
//   4. Packs follow the weights version: after every weight mutation the
//      read path sees current packs, and a publish-time PackWeights on
//      unchanged weights rebuilds nothing.

#include "tensor/packed.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "core/slim.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "tensor/simd.h"

namespace splash {
namespace {

const size_t kDims[] = {1, 3, 8, 17, 33, 128, 2560};

bool HaveAvx2() {
  return CpuSupportsAvx2Fma() && GetAvx2Kernels() != nullptr;
}

bool HaveAvx512() {
  return CpuSupportsAvx512() && GetAvx512Kernels() != nullptr;
}

std::vector<const KernelTable*> AllBackends() {
  std::vector<const KernelTable*> v = {GetScalarKernels()};
  if (HaveAvx2()) v.push_back(GetAvx2Kernels());
  if (HaveAvx512()) v.push_back(GetAvx512Kernels());
  return v;
}

TEST(PackedGemmTest, KBlockRowsProperties) {
  for (size_t k : kDims) {
    for (size_t n : kDims) {
      const size_t kb = PackedKBlockRows(k, n);
      ASSERT_LE(kb, k) << "k=" << k << " n=" << n;
      ASSERT_GE(kb, std::min(k, size_t{32})) << "k=" << k << " n=" << n;
      // Whole 16-row groups unless capped by k itself.
      ASSERT_TRUE(kb % 16 == 0 || kb == k) << "k=" << k << " n=" << n;
    }
  }
  EXPECT_EQ(PackedKBlockRows(0, 64), 0u);
}

/// Recovers element (kk, j) of the original B from the packed layout.
float PackedAt(const PackedMatrix& p, size_t kk, size_t j) {
  const size_t pb = kk / p.block_rows();
  const size_t jp = j / PackedMatrix::kPanelCols;
  return p.Panel(pb, jp)[(kk - p.BlockBegin(pb)) * PackedMatrix::kPanelCols +
                         j % PackedMatrix::kPanelCols];
}

TEST(PackedGemmTest, PackRoundTripRaggedShapes) {
  Rng rng(301);
  for (size_t k : kDims) {
    for (size_t n : kDims) {
      if (k * n > size_t{8} << 20) continue;  // bound test churn
      const Matrix b = Matrix::Gaussian(k, n, &rng);
      PackedMatrix p;
      p.PackFrom(b);
      ASSERT_EQ(p.k(), k);
      ASSERT_EQ(p.n(), n);
      for (size_t kk = 0; kk < k; ++kk) {
        for (size_t j = 0; j < n; ++j) {
          ASSERT_EQ(PackedAt(p, kk, j), b(kk, j))
              << "k=" << k << " n=" << n << " at (" << kk << "," << j << ")";
        }
        // Dead lanes of the last panel are zero (full-width tail loads in
        // the SIMD kernels rely on fma(a, 0, acc) == acc).
        const size_t last = p.panels() - 1;
        const size_t pb = kk / p.block_rows();
        const float* row = p.Panel(pb, last) +
                           (kk - p.BlockBegin(pb)) * PackedMatrix::kPanelCols;
        for (size_t j = n - last * PackedMatrix::kPanelCols;
             j < PackedMatrix::kPanelCols; ++j) {
          ASSERT_EQ(row[j], 0.0f) << "pad lane k=" << k << " n=" << n;
        }
      }
    }
  }
}

// Shape sweep for kernel equality: ragged in every dimension, plus
// (k=2560, n=1024) whose packed operand exceeds half of any realistic L2
// and therefore runs the multi-k-block path.
struct Shape {
  size_t m, k, n;
};
const Shape kGemmShapes[] = {
    {1, 1, 1},    {1, 1024, 64}, {3, 17, 5},    {5, 2560, 1024},
    {8, 33, 16},  {9, 19, 31},   {17, 128, 48}, {33, 48, 33},
    {2560, 48, 64},
};

TEST(PackedGemmTest, PackedBitEqualsUnpackedPerBackend) {
  for (const KernelTable* t : AllBackends()) {
    Rng rng(303);
    for (const Shape& sh : kGemmShapes) {
      const Matrix a = Matrix::Gaussian(sh.m, sh.k, &rng);
      const Matrix b = Matrix::Gaussian(sh.k, sh.n, &rng);
      PackedMatrix p;
      p.PackFrom(b);

      Matrix c_ref(sh.m, sh.n), c_pack(sh.m, sh.n);
      t->matmul_range(a, b, &c_ref, 0, sh.m, false);
      t->matmul_packed_range(a, p, &c_pack, 0, sh.m, false);
      for (size_t i = 0; i < c_ref.size(); ++i) {
        ASSERT_EQ(c_ref.data()[i], c_pack.data()[i])
            << t->name << " " << sh.m << "x" << sh.k << "x" << sh.n
            << " flat " << i;
      }

      // Accumulate path from an identical prior.
      Matrix acc_ref = Matrix::Ones(sh.m, sh.n);
      Matrix acc_pack = Matrix::Ones(sh.m, sh.n);
      t->matmul_range(a, b, &acc_ref, 0, sh.m, true);
      t->matmul_packed_range(a, p, &acc_pack, 0, sh.m, true);
      for (size_t i = 0; i < acc_ref.size(); ++i) {
        ASSERT_EQ(acc_ref.data()[i], acc_pack.data()[i])
            << t->name << " acc " << sh.m << "x" << sh.k << "x" << sh.n;
      }

      // Fused epilogue, bias present and absent, both activations.
      std::vector<float> bias(sh.n);
      for (size_t j = 0; j < sh.n; ++j) {
        bias[j] = 0.25f * static_cast<float>(rng.Uniform() - 0.5);
      }
      for (const float* bp : {static_cast<const float*>(nullptr),
                              static_cast<const float*>(bias.data())}) {
        for (bool relu : {false, true}) {
          Matrix f_ref(sh.m, sh.n), f_pack(sh.m, sh.n);
          t->matmul_bias_act_range(a, b, &f_ref, 0, sh.m, bp, relu);
          t->matmul_packed_bias_act_range(a, p, &f_pack, 0, sh.m, bp, relu);
          for (size_t i = 0; i < f_ref.size(); ++i) {
            ASSERT_EQ(f_ref.data()[i], f_pack.data()[i])
                << t->name << " fused " << sh.m << "x" << sh.k << "x"
                << sh.n << " relu=" << relu << " bias=" << (bp != nullptr);
          }
        }
      }
    }
  }
}

TEST(PackedGemmTest, PackedRangeSubsetMatchesFullRows) {
  // Row-range calls (the parallel wrapper's unit) must write exactly the
  // requested rows, identically to the full-range call.
  for (const KernelTable* t : AllBackends()) {
    Rng rng(304);
    const size_t m = 23, k = 37, n = 29;
    const Matrix a = Matrix::Gaussian(m, k, &rng);
    const Matrix b = Matrix::Gaussian(k, n, &rng);
    PackedMatrix p;
    p.PackFrom(b);
    Matrix full(m, n), part(m, n);
    t->matmul_packed_range(a, p, &full, 0, m, false);
    t->matmul_packed_range(a, p, &part, 0, 9, false);
    t->matmul_packed_range(a, p, &part, 9, m, false);
    for (size_t i = 0; i < full.size(); ++i) {
      ASSERT_EQ(full.data()[i], part.data()[i]) << t->name << " flat " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// The one-row kernel (MatMulRowBiasAct) reduces over a row's nonzero
// inputs only; each output row must equal the dense multi-row kernels'
// row, packed and row-major B, bit for bit.
// ---------------------------------------------------------------------------

/// One row per input density: all +0, 2%, 50% (the zeros alternate +0 and
/// -0), all -0, and 100% nonzero.
Matrix SparseRows(size_t k, Rng* rng) {
  const double density[] = {0.0, 0.02, 0.5, 0.0, 1.0};
  Matrix a(5, k);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t kk = 0; kk < k; ++kk) {
      const bool nonzero = rng->Uniform() < density[r];
      const float x = static_cast<float>(rng->Gaussian());
      a(r, kk) = nonzero ? x : (r == 3 || (r == 2 && kk % 2 == 1) ? -0.0f
                                                                  : 0.0f);
    }
  }
  return a;
}

TEST(PackedGemmTest, OneRowKernelBitEqualsDenseRowPerBackend) {
  const size_t kNs[] = {2, 7, 16, 31, 33, 64, 1024};
  std::vector<uint32_t> nz;  // shared grow-only scratch, as callers hold it
  for (const KernelTable* t : AllBackends()) {
    ASSERT_TRUE(SetKernelBackendForTesting(t->name));
    Rng rng(305);
    for (size_t n : kNs) {
      // Up to three k-blocks of the packed operand.
      const size_t kb = PackedKBlockRows(size_t{1} << 20, n);
      for (size_t k : {size_t{1}, size_t{2}, size_t{5}, size_t{16},
                       size_t{33}, size_t{100}, kb + 3, 2 * kb + 17}) {
        const Matrix a = SparseRows(k, &rng);
        const Matrix b = Matrix::Gaussian(k, n, &rng);
        PackedMatrix p;
        p.PackFrom(b);
        std::vector<float> bias(n);
        for (float& x : bias) x = 0.5f * static_cast<float>(rng.Gaussian());
        for (const float* bp : {static_cast<const float*>(nullptr),
                                static_cast<const float*>(bias.data())}) {
          for (bool relu : {false, true}) {
            Matrix dense(a.rows(), n);
            MatMulBiasActRange(a, b, &dense, 0, a.rows(), bp, relu);
            Matrix dense_packed(a.rows(), n);
            MatMulPackedBiasActRange(a, p, &dense_packed, 0, a.rows(), bp,
                                     relu);
            ASSERT_EQ(std::memcmp(dense.data(), dense_packed.data(),
                                  dense.size() * sizeof(float)),
                      0)
                << t->name << " n=" << n << " k=" << k;
            Matrix row(a.rows(), n);
            for (size_t r = 0; r < a.rows(); ++r) {
              MatMulRowBiasAct(a, r, b, &row, bp, relu, &nz);
              ASSERT_EQ(std::memcmp(dense.Row(r), row.Row(r),
                                    n * sizeof(float)),
                        0)
                  << t->name << " n=" << n << " k=" << k << " row=" << r
                  << " bias=" << (bp != nullptr) << " relu=" << relu;
            }
          }
        }
      }
    }
  }
  ASSERT_TRUE(SetKernelBackendForTesting("auto"));
}

// ---------------------------------------------------------------------------
// End-to-end SLIM read-path contracts.
// ---------------------------------------------------------------------------

SlimBatchInput MakeBatch(size_t b, size_t k, size_t dv, double drift,
                         Rng* rng) {
  SlimBatchInput input;
  input.node_feats = Matrix::Gaussian(b, dv, rng);
  input.neighbor_feats = Matrix::Gaussian(b * k, dv, rng);
  // Synthetic drift: a slowly moving mean shifts features across the
  // batch, as in the robustness evals.
  for (size_t i = 0; i < b; ++i) {
    const float shift =
        static_cast<float>(drift * static_cast<double>(i) / b);
    for (size_t j = 0; j < dv; ++j) input.node_feats(i, j) += shift;
  }
  input.time_deltas.resize(b * k);
  for (size_t i = 0; i < b * k; ++i) {
    input.time_deltas[i] = rng->Uniform() * 10.0;
  }
  input.mask = Matrix::Ones(b, k);
  input.edge_weights.assign(b * k, 1.0f);
  return input;
}

/// Labels correlated with the feature mean.
std::vector<int> MakeLabels(const SlimBatchInput& input) {
  std::vector<int> labels(input.node_feats.rows());
  for (size_t i = 0; i < labels.size(); ++i) {
    float s = 0.0f;
    for (size_t j = 0; j < input.node_feats.cols(); ++j) {
      s += input.node_feats(i, j);
    }
    labels[i] = s > 0.0f ? 1 : 0;
  }
  return labels;
}

void ExpectBitEqual(const Matrix& want, const Matrix& got,
                    const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.data()[i], got.data()[i]) << what << " flat " << i;
  }
}

TEST(PackedGemmTest, SlimPredictPackedBitEqualsUnpackedPerBackend) {
  SlimOptions opts;
  opts.feature_dim = 24;
  opts.hidden_dim = 48;
  opts.k_recent = 5;
  opts.dropout = 0.0f;
  Rng data_rng(71);
  const SlimBatchInput input = MakeBatch(64, 5, 24, 1.0, &data_rng);
  const SlimBatchInput train = MakeBatch(64, 5, 24, 1.0, &data_rng);
  const std::vector<int> labels = MakeLabels(train);

  // A different model's learned state, as a checkpoint stream.
  ByteWriter other_bytes;
  {
    Rng other_rng(99);
    SlimModel other(opts, &other_rng);
    SlimTrainState other_train(opts);
    other.SetTraining(true);
    other.TrainStep(train, labels, &other_train);
    other.Serialize(&other_bytes, other_train);
  }

  std::vector<const char*> backends = {"scalar"};
  if (HaveAvx2()) backends.push_back("avx2");
  if (HaveAvx512()) backends.push_back("avx512");
  for (const char* name : backends) {
    ASSERT_TRUE(SetKernelBackendForTesting(name));
    Rng rng(42);
    SlimModel model(opts, &rng);
    SlimTrainState model_train(opts);
    SlimForwardScratch scratch;

    // Weight mutations, applied in sequence. After each the packs must be
    // current: the const read bit-equals the unpacked path. `rebuilds` is
    // the pack-rebuild count the mutation may cost — packs follow the
    // weights, nothing else.
    struct Stage {
      const char* what;
      uint64_t rebuilds;
      std::function<void()> mutate;
    };
    const Stage stages[] = {
        {"construction", 0, [] {}},
        {"TrainStep", 1,
         [&] {
           model.SetTraining(true);
           model.TrainStep(train, labels, &model_train);
           model.SetTraining(false);
         }},
        {"Deserialize(other model)", 1,
         [&] {
           ByteReader r(other_bytes.buffer());
           EXPECT_TRUE(model.Deserialize(&r, &model_train));
         }},
    };
    for (const Stage& stage : stages) {
      const std::string what = std::string(name) + " after " + stage.what;
      const uint64_t before = model.pack_count();
      stage.mutate();
      EXPECT_EQ(model.pack_count() - before, stage.rebuilds) << what;

      // What PrepareForPublish runs: a version check on unchanged weights.
      const uint64_t packs = model.pack_count();
      model.PackWeights();
      EXPECT_EQ(model.pack_count(), packs) << what;

      SetGemmPackForTesting(false);
      const Matrix unpacked = model.PredictConst(input, &scratch);
      SetGemmPackForTesting(true);
      ExpectBitEqual(unpacked, model.PredictConst(input, &scratch), what);
    }
  }
  ASSERT_TRUE(SetKernelBackendForTesting("auto"));
}

}  // namespace
}  // namespace splash
