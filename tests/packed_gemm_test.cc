// Copyright 2026 The SPLASH Reproduction Authors.
//
// Contracts of the cache-aware packed-B GEMM tier (tensor/packed.h):
//   1. Packing is a pure re-tiling — every element of B is recoverable
//      from its (k-block, panel) slot and dead panel lanes are zero,
//      across ragged shapes in every dimension.
//   2. Packed kernels are BIT-identical to the unpacked kernels on the
//      same backend (scalar, avx2, avx512), including multi-k-block
//      shapes, accumulate, and the fused bias/ReLU epilogue.
//   3. The bf16 packed kernels are tolerance-equivalent to fp32 (storage
//      error <= half an 8-bit-mantissa ulp per element of B), and the
//      end-to-end SLIM read path holds AUC parity on a drifting synthetic
//      task with |dAUC| <= 1e-3.
//   4. The bf16 replica halves resident weight-operand bytes, exactly.
//   5. Packs follow the weights version: after every weight or precision
//      mutation the read path sees current packs, and a publish-time
//      PackWeights on unchanged weights rebuilds nothing.

#include "tensor/packed.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "core/slim.h"
#include "eval/metrics.h"
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
template <typename Packed>
auto PackedAt(const Packed& p, size_t kk, size_t j) {
  const size_t pb = kk / p.block_rows();
  const size_t jp = j / Packed::kPanelCols;
  return p.Panel(pb, jp)[(kk - p.BlockBegin(pb)) * Packed::kPanelCols +
                         j % Packed::kPanelCols];
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
        // Dead lanes of the last panel are zero (full-width kernel loads
        // rely on fma(a, 0, acc) == acc).
        const size_t last = p.panels() - 1;
        const size_t pb = kk / p.block_rows();
        const float* row = p.Panel(pb, last) +
                           (kk - p.BlockBegin(pb)) * PackedMatrix::kPanelCols;
        for (size_t j = n - last * PackedMatrix::kPanelCols;
             j < PackedMatrix::kPanelCols; ++j) {
          ASSERT_EQ(row[j], 0.0f) << "pad lane k=" << k << " n=" << n;
        }
      }

      PackedMatrix16 p16;
      p16.PackFrom(b);
      for (size_t kk = 0; kk < k; ++kk) {
        for (size_t j = 0; j < n; ++j) {
          ASSERT_EQ(PackedAt(p16, kk, j), Bf16FromFloat(b(kk, j)))
              << "bf16 k=" << k << " n=" << n;
        }
      }
    }
  }
}

TEST(PackedGemmTest, Bf16ConversionProperties) {
  // Exactly representable values round-trip bit-exactly.
  for (float v : {0.0f, 1.0f, -2.5f, 0.15625f, -1024.0f}) {
    EXPECT_EQ(Bf16ToFloat(Bf16FromFloat(v)), v);
  }
  // Round-to-nearest-even stays within half a bf16 ulp. The stored
  // mantissa has 7 bits, so an ulp at |v| in [2^e, 2^(e+1)) is 2^(e-7)
  // and the half-ulp bound relative to |v| >= 2^e is 2^-8 = 1/256.
  Rng rng(302);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>((rng.Uniform() - 0.5) * 200.0);
    const float w = Bf16ToFloat(Bf16FromFloat(v));
    EXPECT_NEAR(w, v, std::fabs(v) * (1.0f / 256.0f) + 1e-38f) << v;
  }
  // NaN survives conversion (quiet bit forced, no exponent overflow).
  const float nan = std::nanf("");
  EXPECT_TRUE(std::isnan(Bf16ToFloat(Bf16FromFloat(nan))));
  // bf16 -> fp32 -> bf16 is the identity (widening is exact).
  for (uint32_t h = 0; h < 0x10000u; h += 257) {
    const uint16_t b = static_cast<uint16_t>(h);
    const float f = Bf16ToFloat(b);
    if (std::isnan(f)) continue;  // NaN payloads re-quiet, values differ
    EXPECT_EQ(Bf16FromFloat(f), b);
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

TEST(PackedGemmTest, Bf16KernelWithinToleranceOfFp32PerBackend) {
  for (const KernelTable* t : AllBackends()) {
    Rng rng(305);
    for (const Shape& sh : kGemmShapes) {
      const Matrix a = Matrix::Gaussian(sh.m, sh.k, &rng);
      const Matrix b = Matrix::Gaussian(sh.k, sh.n, &rng);
      PackedMatrix16 p16;
      p16.PackFrom(b);
      std::vector<float> bias(sh.n);
      for (size_t j = 0; j < sh.n; ++j) {
        bias[j] = 0.25f * static_cast<float>(rng.Uniform() - 0.5);
      }
      Matrix c32(sh.m, sh.n), c16(sh.m, sh.n);
      t->matmul_bias_act_range(a, b, &c32, 0, sh.m, bias.data(), true);
      t->matmul_packed16_bias_act_range(a, p16, &c16, 0, sh.m, bias.data(),
                                        true);
      for (size_t i = 0; i < sh.m; ++i) {
        double mass = 0.0;
        for (size_t kk = 0; kk < sh.k; ++kk) {
          mass += std::fabs(static_cast<double>(a(i, kk)));
        }
        for (size_t j = 0; j < sh.n; ++j) {
          // Each stored B element errs by <= 2^-9 relative; the dot error
          // is bounded by the |a|-mass times the largest |b| error.
          const double tol = mass * (3.0 / 512.0) + 1e-6;
          ASSERT_NEAR(c32(i, j), c16(i, j), tol)
              << t->name << " " << sh.m << "x" << sh.k << "x" << sh.n
              << " at (" << i << "," << j << ")";
        }
      }
    }
  }
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

/// Labels correlated with the feature mean, so the trained model's scores
/// carry real AUC signal for the parity check.
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

std::vector<double> AnomalyScores(const Matrix& out) {
  std::vector<double> scores(out.rows());
  for (size_t i = 0; i < out.rows(); ++i) {
    scores[i] = static_cast<double>(out(i, 1)) - out(i, 0);
  }
  return scores;
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
    other.SetTraining(true);
    other.TrainStep(train, labels);
    other.Serialize(&other_bytes);
  }

  std::vector<const char*> backends = {"scalar"};
  if (HaveAvx2()) backends.push_back("avx2");
  if (HaveAvx512()) backends.push_back("avx512");
  for (const char* name : backends) {
    ASSERT_TRUE(SetKernelBackendForTesting(name));
    Rng rng(42);
    SlimModel model(opts, &rng);
    SlimForwardScratch scratch;
    // Leave bf16 packs of the construction weights behind, so a missed
    // bf16 refresh below reads stale numbers rather than empty packs.
    model.SetReplicaPrecisionBf16(true);
    model.SetReplicaPrecisionBf16(false);

    // Weight and precision mutations, applied in sequence. After each the
    // packs must be current: the fp32 const read bit-equals the unpacked
    // path, and a bf16 read bit-equals a model packed afresh from the
    // same weights. `rebuilds` is the pack-rebuild count the mutation
    // may cost — packs follow the weights, nothing else.
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
           model.TrainStep(train, labels);
           model.SetTraining(false);
         }},
        {"Deserialize(other model)", 1,
         [&] {
           ByteReader r(other_bytes.buffer());
           EXPECT_TRUE(model.Deserialize(&r));
         }},
        {"bf16 on->off->on", 1,
         [&] {
           model.SetReplicaPrecisionBf16(true);
           model.SetReplicaPrecisionBf16(false);
           model.SetReplicaPrecisionBf16(true);
         }},
    };
    for (const Stage& stage : stages) {
      const std::string what = std::string(name) + " after " + stage.what;
      const uint64_t before = model.pack_count();
      stage.mutate();
      EXPECT_EQ(model.pack_count() - before, stage.rebuilds) << what;

      if (model.replica_precision_bf16()) {
        ByteWriter state;
        model.Serialize(&state);
        Rng fresh_rng(1);
        SlimModel fresh(opts, &fresh_rng);
        ByteReader r(state.buffer());
        ASSERT_TRUE(fresh.Deserialize(&r)) << what;
        fresh.SetReplicaPrecisionBf16(true);
        SlimForwardScratch fresh_scratch;
        ExpectBitEqual(fresh.PredictConst(input, &fresh_scratch),
                       model.PredictConst(input, &scratch), what + " bf16");
        model.SetReplicaPrecisionBf16(false);
      }

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

TEST(PackedGemmTest, Bf16ReplicaAucParityOnSyntheticDrift) {
  SlimOptions opts;
  opts.feature_dim = 24;
  opts.hidden_dim = 48;
  opts.k_recent = 5;
  opts.dropout = 0.0f;
  Rng rng(43), data_rng(72);
  SlimModel model(opts, &rng);
  model.SetTraining(true);

  // Train on the drifting synthetic task until the scores are informative.
  for (int step = 0; step < 30; ++step) {
    const SlimBatchInput batch = MakeBatch(96, 5, 24, 1.5, &data_rng);
    model.TrainStep(batch, MakeLabels(batch));
  }
  model.SetTraining(false);

  const SlimBatchInput eval = MakeBatch(256, 5, 24, 1.5, &data_rng);
  const std::vector<int> labels = MakeLabels(eval);
  SlimForwardScratch scratch;

  const std::vector<double> s32 =
      AnomalyScores(model.PredictConst(eval, &scratch));
  model.SetReplicaPrecisionBf16(true);
  const std::vector<double> s16 =
      AnomalyScores(model.PredictConst(eval, &scratch));
  model.SetReplicaPrecisionBf16(false);

  const double auc32 = AucScore(s32, labels);
  const double auc16 = AucScore(s16, labels);
  // The trained model must actually separate the classes, or parity is
  // vacuous.
  ASSERT_GT(auc32, 0.8) << "synthetic task not learned; test is vacuous";
  EXPECT_NEAR(auc32, auc16, 1e-3);
}

TEST(PackedGemmTest, Bf16ReplicaHalvesResidentWeightBytes) {
  SlimOptions opts;
  opts.feature_dim = 32;
  opts.hidden_dim = 64;
  Rng rng(44);
  SlimModel model(opts, &rng);
  const size_t fp32_bytes = model.PackedWeightBytes();
  ASSERT_GT(fp32_bytes, 0u);
  model.SetReplicaPrecisionBf16(true);
  const size_t bf16_bytes = model.PackedWeightBytes();
  // Identical pack geometry at half the element width: exactly half.
  EXPECT_EQ(bf16_bytes * 2, fp32_bytes);
}

}  // namespace
}  // namespace splash
