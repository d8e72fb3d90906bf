// Copyright 2026 The SPLASH Reproduction Authors.
//
// Backend-equivalence suite for the runtime-dispatched kernel layer
// (DESIGN.md §6): for every kernel in the table and a shape sweep that
// includes ragged tails, each SIMD backend (avx2, avx512) must match the
// scalar reference within a 4-ulp relative tolerance (relative to the
// element's absolute dot mass, so cancellation does not inflate the bound
// into meaningless territory). Also pins the dispatch-resolution logic, the
// padded-layout and tail-lane bit-equality (padding and masked tails must
// never change arithmetic), the scalar-backend bit-equality of the fused
// epilogue vs the three-pass sequence it replaced, row-range calls vs the
// full-range call, and the one-row kernel vs the dense rows, bit for bit on
// every backend.

#include "tensor/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace splash {
namespace {

const size_t kDims[] = {1, 3, 8, 17, 33, 128};

bool HaveAvx2() {
  return CpuSupportsAvx2Fma() && GetAvx2Kernels() != nullptr;
}

bool HaveAvx512() {
  return CpuSupportsAvx512() && GetAvx512Kernels() != nullptr;
}

/// Every SIMD backend this host can run; equivalence tests sweep them all
/// against the scalar reference.
std::vector<const KernelTable*> SimdBackends() {
  std::vector<const KernelTable*> v;
  if (HaveAvx2()) v.push_back(GetAvx2Kernels());
  if (HaveAvx512()) v.push_back(GetAvx512Kernels());
  return v;
}

/// The scalar reference and every SIMD backend this host can run.
std::vector<const KernelTable*> AllBackends() {
  std::vector<const KernelTable*> v = {GetScalarKernels()};
  for (const KernelTable* t : SimdBackends()) v.push_back(t);
  return v;
}

/// |got - want| <= 4 ulp relative to the element's absolute accumulation
/// mass: both backends round a reordering of the same |mass|-sized sum, so
/// their difference is bounded by a few ulp of that mass even when the
/// signed result cancels to near zero.
void ExpectUlpClose(float want, float got, double abs_mass,
                    const char* what, size_t i, size_t j) {
  const double eps = std::numeric_limits<float>::epsilon();
  const double tol =
      4.0 * eps * std::max(abs_mass, static_cast<double>(std::fabs(want)));
  EXPECT_NEAR(want, got, tol) << what << " at (" << i << "," << j << ")";
}

struct GemmCase {
  Matrix a, b, c_scalar, c_simd;
  Matrix abs_mass;  // per-element sum of |a||b| terms, the tolerance scale
};

/// Compares two full output matrices against the per-element mass bound.
void CompareOutputs(const GemmCase& g, const char* what) {
  ASSERT_EQ(g.c_scalar.rows(), g.c_simd.rows());
  ASSERT_EQ(g.c_scalar.cols(), g.c_simd.cols());
  for (size_t i = 0; i < g.c_scalar.rows(); ++i) {
    for (size_t j = 0; j < g.c_scalar.cols(); ++j) {
      ExpectUlpClose(g.c_scalar(i, j), g.c_simd(i, j), g.abs_mass(i, j),
                     what, i, j);
    }
  }
}

/// Fills abs_mass for c = a * b (a: MxK, b: KxN).
void FillMassAB(GemmCase* g) {
  const size_t m = g->a.rows(), k = g->a.cols(), n = g->b.cols();
  g->abs_mass = Matrix(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double mass = 0.0;
      for (size_t kk = 0; kk < k; ++kk) {
        mass += std::fabs(static_cast<double>(g->a(i, kk)) * g->b(kk, j));
      }
      g->abs_mass(i, j) = static_cast<float>(mass);
    }
  }
}

TEST(SimdKernelsTest, MatMulScalarVsSimdAcrossShapeSweep) {
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  for (const KernelTable* x : backends) {
    Rng rng(101);
    for (size_t m : kDims) {
      for (size_t k : kDims) {
        for (size_t n : kDims) {
          GemmCase g;
          g.a = Matrix::Gaussian(m, k, &rng);
          g.b = Matrix::Gaussian(k, n, &rng);
          g.c_scalar = Matrix(m, n);
          g.c_simd = Matrix(m, n);
          FillMassAB(&g);
          s->matmul_range(g.a, g.b, &g.c_scalar, 0, m, false);
          x->matmul_range(g.a, g.b, &g.c_simd, 0, m, false);
          CompareOutputs(g, x->name);

          // Accumulate path: both sides start from the same prior.
          Matrix acc_s = Matrix::Ones(m, n), acc_x = Matrix::Ones(m, n);
          s->matmul_range(g.a, g.b, &acc_s, 0, m, true);
          x->matmul_range(g.a, g.b, &acc_x, 0, m, true);
          g.c_scalar = acc_s;
          g.c_simd = acc_x;
          CompareOutputs(g, "MatMul+acc");
        }
      }
    }
  }
}

TEST(SimdKernelsTest, MatMulRaggedTailSweep1To31) {
  // Every masked-tail width both backends can hit: n (column-tail masks)
  // and small m (row-block remainders) from 1 to 31 — covers all
  // __mmask16 and avx2 tail values.
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  for (const KernelTable* x : backends) {
    Rng rng(108);
    std::vector<float> bias;
    for (size_t n = 1; n <= 31; ++n) {
      GemmCase g;
      g.a = Matrix::Gaussian(9, 19, &rng);
      g.b = Matrix::Gaussian(19, n, &rng);
      g.c_scalar = Matrix(9, n);
      g.c_simd = Matrix(9, n);
      FillMassAB(&g);
      s->matmul_range(g.a, g.b, &g.c_scalar, 0, 9, false);
      x->matmul_range(g.a, g.b, &g.c_simd, 0, 9, false);
      CompareOutputs(g, x->name);

      bias.assign(n, 0.0f);
      for (size_t j = 0; j < n; ++j) {
        bias[j] = 0.25f * static_cast<float>(rng.Uniform() - 0.5);
        g.abs_mass(0, j) += std::fabs(bias[j]);
      }
      for (size_t i = 1; i < 9; ++i) {
        for (size_t j = 0; j < n; ++j) {
          g.abs_mass(i, j) += std::fabs(bias[j]);
        }
      }
      s->matmul_bias_act_range(g.a, g.b, &g.c_scalar, 0, 9, bias.data(),
                               true);
      x->matmul_bias_act_range(g.a, g.b, &g.c_simd, 0, 9, bias.data(), true);
      CompareOutputs(g, "fused tail");
    }
    for (size_t m = 1; m <= 31; ++m) {
      GemmCase g;
      g.a = Matrix::Gaussian(m, 13, &rng);
      g.b = Matrix::Gaussian(13, 21, &rng);
      g.c_scalar = Matrix(m, 21);
      g.c_simd = Matrix(m, 21);
      FillMassAB(&g);
      s->matmul_range(g.a, g.b, &g.c_scalar, 0, m, false);
      x->matmul_range(g.a, g.b, &g.c_simd, 0, m, false);
      CompareOutputs(g, "row-block tail");
    }
  }
}

TEST(SimdKernelsTest, MatMulTransAScalarVsSimdAcrossShapeSweep) {
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  for (const KernelTable* x : backends) {
    Rng rng(103);
    for (size_t r : kDims) {
      for (size_t m : kDims) {
        for (size_t n : kDims) {
          GemmCase g;
          g.a = Matrix::Gaussian(r, m, &rng);  // RxM
          g.b = Matrix::Gaussian(r, n, &rng);  // RxN
          g.c_scalar = Matrix(m, n);           // pre-zeroed (range contract)
          g.c_simd = Matrix(m, n);
          g.abs_mass = Matrix(m, n);
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              double mass = 0.0;
              for (size_t rr = 0; rr < r; ++rr) {
                mass +=
                    std::fabs(static_cast<double>(g.a(rr, i)) * g.b(rr, j));
              }
              g.abs_mass(i, j) = static_cast<float>(mass);
            }
          }
          s->matmul_transa_range(g.a, g.b, &g.c_scalar, 0, r);
          x->matmul_transa_range(g.a, g.b, &g.c_simd, 0, r);
          CompareOutputs(g, "MatMulTransA");
        }
      }
    }
  }
}

/// The rank-1 reference for MatMulTransA: c rows [i0, i1) +=
/// a[r0:r1)^T b[r0:r1) as std::fma updates in ascending rr, skipping
/// a == 0.
void RankOneTransA(const Matrix& a, const Matrix& b, Matrix* c, size_t r0,
                   size_t r1, size_t i0, size_t i1) {
  for (size_t rr = r0; rr < r1; ++rr) {
    for (size_t i = i0; i < i1; ++i) {
      const float av = a(rr, i);
      if (av == 0.0f) continue;
      for (size_t j = 0; j < b.cols(); ++j) {
        (*c)(i, j) = std::fma(av, b(rr, j), (*c)(i, j));
      }
    }
  }
}

void ExpectBitEqual(const Matrix& want, const Matrix& got,
                    const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    ASSERT_EQ(std::memcmp(want.Row(i), got.Row(i), want.cols() * sizeof(float)),
              0)
        << what << " row " << i;
  }
}

/// One r x m x n MatMulTransA case against the rank-1 reference, bit for
/// bit: A is ReLU'd (about half its entries exactly 0), and the range
/// form runs split at a reduction row and accumulating into a non-zero C.
void CheckTransABits(const KernelTable* x, size_t r, size_t m, size_t n,
                     Rng* rng) {
  const std::string what = std::string(x->name) + " r=" + std::to_string(r) +
                           " m=" + std::to_string(m) +
                           " n=" + std::to_string(n);
  Matrix a = Matrix::Gaussian(r, m, rng);
  for (size_t rr = 0; rr < r; ++rr) {
    for (size_t i = 0; i < m; ++i) a(rr, i) = std::max(a(rr, i), 0.0f);
  }
  const Matrix b = Matrix::Gaussian(r, n, rng);

  Matrix want(m, n), got(m, n);
  RankOneTransA(a, b, &want, 0, r, 0, m);
  x->matmul_transa_range(a, b, &got, 0, r / 2);
  x->matmul_transa_range(a, b, &got, r / 2, r);
  ExpectBitEqual(want, got, what + " range");

  const Matrix prior = Matrix::Gaussian(m, n, rng);
  want = prior;
  RankOneTransA(a, b, &want, 0, r, 0, m);
  got = prior;
  x->matmul_transa_range(a, b, &got, 0, r);
  ExpectBitEqual(want, got, what + " range into non-zero C");
}

TEST(SimdKernelsTest, MatMulTransABitEqualsRankOneFmaReference) {
  // The tiled kernels keep the rank-1 form's bits: every element is one
  // ascending-rr FMA chain from C's start, and the dropped zero skip is
  // exact on finite data. The shape sweep, plus every row tail of the
  // 8-, 6- and 4-row tiles and column counts that hit the 4-, 2- and
  // 1-vector steps and the masked tail on both widths.
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  for (const KernelTable* x : backends) {
    Rng rng(109);
    for (size_t r : kDims) {
      for (size_t m : kDims) {
        for (size_t n : kDims) CheckTransABits(x, r, m, n, &rng);
      }
    }
    for (size_t m = 1; m <= 17; ++m) {
      for (size_t n : {1, 7, 16, 31, 47, 64, 85, 100}) {
        CheckTransABits(x, 13, m, n, &rng);
      }
    }
  }
}

TEST(SimdKernelsTest, FusedEpilogueMatchesThreePassScalarBitExact) {
  // The scalar fused kernel must be bit-equal to GEMM + bias + ReLU run as
  // separate passes — that is what keeps pre-fusion oracles valid.
  const KernelTable* s = GetScalarKernels();
  Rng rng(104);
  for (size_t m : {3, 17, 64}) {
    for (size_t n : {1, 5, 48}) {
      const Matrix a = Matrix::Gaussian(m, 32, &rng);
      const Matrix b = Matrix::Gaussian(32, n, &rng);
      std::vector<float> bias(n);
      for (size_t j = 0; j < n; ++j) bias[j] = 0.1f * static_cast<float>(j);

      Matrix fused(m, n);
      s->matmul_bias_act_range(a, b, &fused, 0, m, bias.data(), true);

      Matrix ref(m, n);
      s->matmul_range(a, b, &ref, 0, m, false);
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) ref(i, j) += bias[j];
      }
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
          ref(i, j) = ref(i, j) > 0.0f ? ref(i, j) : 0.0f;
        }
      }
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
          ASSERT_EQ(fused(i, j), ref(i, j)) << "(" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(SimdKernelsTest, FusedEpilogueScalarVsSimd) {
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  for (const KernelTable* x : backends) {
    Rng rng(105);
    for (size_t m : kDims) {
      for (size_t n : kDims) {
        const size_t k = 33;
        GemmCase g;
        g.a = Matrix::Gaussian(m, k, &rng);
        g.b = Matrix::Gaussian(k, n, &rng);
        std::vector<float> bias(n);
        for (size_t j = 0; j < n; ++j) {
          bias[j] = 0.25f * static_cast<float>(rng.Uniform() - 0.5);
        }
        g.abs_mass = Matrix(m, n);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            double mass = std::fabs(static_cast<double>(bias[j]));
            for (size_t kk = 0; kk < k; ++kk) {
              mass += std::fabs(static_cast<double>(g.a(i, kk)) * g.b(kk, j));
            }
            g.abs_mass(i, j) = static_cast<float>(mass);
          }
        }
        for (bool relu : {false, true}) {
          g.c_scalar = Matrix(m, n);
          g.c_simd = Matrix(m, n);
          s->matmul_bias_act_range(g.a, g.b, &g.c_scalar, 0, m, bias.data(),
                                   relu);
          x->matmul_bias_act_range(g.a, g.b, &g.c_simd, 0, m, bias.data(),
                                   relu);
          CompareOutputs(g, relu ? "fused+relu" : "fused");
        }
      }
    }
  }
}

TEST(SimdKernelsTest, VectorKernelsScalarVsSimd) {
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  const double eps = std::numeric_limits<float>::epsilon();
  for (const KernelTable* x : backends) {
    Rng rng(106);
    for (size_t n : kDims) {
      // axpy
      std::vector<float> xs(n), ys(n), yx(n);
      for (size_t i = 0; i < n; ++i) {
        xs[i] = static_cast<float>(rng.Uniform() - 0.5);
        ys[i] = static_cast<float>(rng.Uniform() - 0.5);
        yx[i] = ys[i];
      }
      s->axpy(0.7f, xs.data(), ys.data(), n);
      x->axpy(0.7f, xs.data(), yx.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(ys[i], yx[i], 4.0 * eps * (std::fabs(ys[i]) + 1.0))
            << x->name << " axpy[" << i << "]";
      }

      // column sums over rows 2-14 of a biased, rectified 17 x n matrix
      Matrix ms = Matrix::Gaussian(17, n, &rng);
      for (size_t i = 0; i < 17; ++i) {
        for (size_t j = 0; j < n; ++j) {
          const float v = ms(i, j) + -0.05f;
          ms(i, j) = v > 0.0f ? v : 0.0f;
        }
      }
      std::vector<float> cs(n), cx(n);
      s->column_sums_range(ms, cs.data(), 2, 15, false);
      x->column_sums_range(ms, cx.data(), 2, 15, false);
      for (size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(cs[j], cx[j], 4.0 * eps * (std::fabs(cs[j]) + 13.0))
            << x->name << " colsum[" << j << "]";
      }

      // adam
      std::vector<float> w1(n), w2(n), gg(n), m1(n), m2(n), v1(n), v2(n);
      for (size_t i = 0; i < n; ++i) {
        w1[i] = w2[i] = static_cast<float>(rng.Uniform() - 0.5);
        gg[i] = static_cast<float>(rng.Uniform() - 0.5);
        m1[i] = m2[i] = static_cast<float>(rng.Uniform() - 0.5);
        v1[i] = v2[i] = static_cast<float>(rng.Uniform());
      }
      s->adam_update(w1.data(), gg.data(), m1.data(), v1.data(), n, 1e-3f,
                     0.9f, 0.999f, 1e-8f);
      x->adam_update(w2.data(), gg.data(), m2.data(), v2.data(), n, 1e-3f,
                     0.9f, 0.999f, 1e-8f);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(w1[i], w2[i], 8.0 * eps * (std::fabs(w1[i]) + 1e-3))
            << x->name << " adam w[" << i << "]";
        EXPECT_NEAR(v1[i], v2[i], 8.0 * eps * (std::fabs(v1[i]) + 1e-6))
            << x->name << " adam v[" << i << "]";
      }
    }
  }
}

TEST(SimdKernelsTest, SincosEncodeRowsScalarVsSimd) {
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  // x values spanning the log-compressed delta/degree range (log1p of
  // [0, 1e9] stays under ~21), one row each of a single call; decays from
  // both call sites, dims covering full vectors, masked pair tails, odd
  // trailing lanes and the two-rows-per-vector dims, including the
  // 16-lane boundary cases of the avx512 interleave.
  const float xs[] = {0.0f, 1e-4f, 0.3f, 1.0f, 3.1415926f, 7.5f, 20.7f};
  const size_t n = sizeof(xs) / sizeof(xs[0]);
  const float decays[] = {0.5f, 0.6f, 0.9f};
  for (const KernelTable* x : backends) {
    for (float decay : decays) {
      for (size_t dim : {1, 2, 7, 8, 16, 17, 31, 32, 33, 63, 64, 65}) {
        const size_t stride = dim + 3;
        std::vector<float> a(n * stride, -9.0f), b(n * stride, -9.0f);
        s->sincos_encode_rows(xs, n, decay, a.data(), stride, dim);
        x->sincos_encode_rows(xs, n, decay, b.data(), stride, dim);
        for (size_t r = 0; r < n; ++r) {
          for (size_t j = 0; j < dim; ++j) {
            // |sin|,|cos| <= 1: the polynomial backends are within ~1e-7
            // absolute of libm on this range.
            EXPECT_NEAR(a[r * stride + j], b[r * stride + j], 1e-6f)
                << x->name << " x=" << xs[r] << " decay=" << decay
                << " dim=" << dim << " j=" << j;
          }
        }
      }
    }
  }
}

// A row's code must not depend on the call it is part of: on every
// backend, n rows in one call (the SIMD backends pack two rows to a vector
// where a row fills at most half of one) are memcmp-equal to n one-row
// calls (one row per vector), at contiguous and padded strides, and no
// call writes outside a row's [0, dim).
TEST(SimdKernelsTest, SincosEncodeRowsBitEqualOneRowCalls) {
  constexpr float kSentinel = -7.0f;
  Rng rng(29);
  std::vector<float> xs = {0.0f, -0.0f, 1e-38f, 1e-30f, 3e-8f, 1e-3f,
                           0.5f, 21.0f, 90.0f, 1e4f};
  while (xs.size() < 37) {
    xs.push_back(static_cast<float>(25.0 * rng.Uniform()));
  }
  for (const KernelTable* t : AllBackends()) {
    for (size_t dim = 1; dim <= 40; ++dim) {
      for (const size_t stride : {dim, dim + 5, (dim + 15) / 16 * 16 + 16}) {
        std::vector<float> one(stride, kSentinel);
        for (size_t n = 0; n <= xs.size(); ++n) {
          std::vector<float> rows(n * stride + 1, kSentinel);
          t->sincos_encode_rows(xs.data(), n, 0.5f, rows.data(), stride, dim);
          for (size_t r = 0; r < n; ++r) {
            t->sincos_encode_rows(&xs[r], 1, 0.5f, one.data(), stride, dim);
            ASSERT_EQ(std::memcmp(rows.data() + r * stride, one.data(),
                                  dim * sizeof(float)),
                      0)
                << t->name << " dim=" << dim << " stride=" << stride
                << " n=" << n << " row " << r << " x=" << xs[r];
            for (size_t j = dim; j < stride; ++j) {
              ASSERT_EQ(rows[r * stride + j], kSentinel)
                  << t->name << " wrote padding: dim=" << dim
                  << " stride=" << stride << " n=" << n << " row " << r;
            }
          }
          ASSERT_EQ(rows[n * stride], kSentinel) << t->name << " n=" << n;
        }
      }
    }
  }
}

/// Bits of f, so +0 / -0 and NaN compare exactly.
uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// Today's Adam formula for one lane, as backend `t` computes it: the
/// scalar backend's historical loop, or the SIMD body's FMA sequence.
void AdamLane(const KernelTable* t, float* w, float g, float* m, float* v,
              float step, float beta1, float beta2, float eps) {
  if (std::strcmp(t->name, "scalar") == 0) {
    *m = beta1 * *m + (1.0f - beta1) * g;
    *v = beta2 * *v + (1.0f - beta2) * g * g;
    *w -= step * *m / (std::sqrt(*v) + eps);
    return;
  }
  *m = std::fma(beta1, *m, (1.0f - beta1) * g);
  *v = std::fma(beta2, *v, (1.0f - beta2) * (g * g));
  *w = *w - (step * *m) / (std::sqrt(*v) + eps);
}

TEST(SimdKernelsTest, AdamStoresNoSubnormalMoments) {
  std::vector<const KernelTable*> tables = {GetScalarKernels()};
  for (const KernelTable* t : SimdBackends()) tables.push_back(t);
  const float sub = std::numeric_limits<float>::denorm_min() * 5.0f;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const KernelTable* t : tables) {
    // 37 lanes: full vectors and a masked tail on both widths. Every third
    // lane has a subnormal m and v and a zero gradient, lane 4 a NaN m;
    // the rest are normal.
    const size_t n = 37;
    Rng rng(110);
    std::vector<float> w(n), g(n), m(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      w[i] = static_cast<float>(rng.Uniform() - 0.5);
      g[i] = static_cast<float>(rng.Uniform() - 0.5);
      m[i] = static_cast<float>(rng.Uniform() - 0.5) * 1e-2f;
      v[i] = static_cast<float>(rng.Uniform()) * 1e-4f;
      if (i % 3 == 0) {
        g[i] = 0.0f;
        m[i] = (i % 2 == 0) ? sub : -sub;
        v[i] = sub;
      }
    }
    m[4] = nan;
    std::vector<float> w0 = w, m0 = m, v0 = v;
    t->adam_update(w.data(), g.data(), m.data(), v.data(), n, 1e-3f, 0.9f,
                   0.999f, 1e-8f);
    for (size_t i = 0; i < n; ++i) {
      const std::string at = std::string(t->name) + " lane " +
                             std::to_string(i);
      if (i % 3 == 0) {
        EXPECT_EQ(Bits(m[i]), 0u) << at << " m";
        EXPECT_EQ(Bits(v[i]), 0u) << at << " v";
        EXPECT_EQ(Bits(w[i]), Bits(w0[i])) << at << " w";
      } else if (i == 4) {
        EXPECT_TRUE(std::isnan(m[i])) << at;
        EXPECT_TRUE(std::isnan(w[i])) << at;
      } else {
        float wr = w0[i], mr = m0[i], vr = v0[i];
        AdamLane(t, &wr, g[i], &mr, &vr, 1e-3f, 0.9f, 0.999f, 1e-8f);
        EXPECT_EQ(Bits(m[i]), Bits(mr)) << at << " m";
        EXPECT_EQ(Bits(v[i]), Bits(vr)) << at << " v";
        EXPECT_EQ(Bits(w[i]), Bits(wr)) << at << " w";
      }
    }

    // A zero gradient decays m to exactly +0: without the flush it parks
    // on a subnormal fixed point (0.9 * m rounds back to m) for good.
    std::fill(w.begin(), w.end(), 0.5f);
    std::fill(g.begin(), g.end(), 0.0f);
    std::fill(m.begin(), m.end(), 1e-3f);
    std::fill(v.begin(), v.end(), 1e-6f);
    for (int step = 0; step < 2000; ++step) {
      t->adam_update(w.data(), g.data(), m.data(), v.data(), n, 1e-3f, 0.9f,
                     0.999f, 1e-8f);
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(m[i]), 0u) << t->name << " decayed m[" << i << "]";
      EXPECT_TRUE(std::isnormal(v[i])) << t->name << " v[" << i << "]";
    }
  }
}

/// Asserts lanes [0, n) of `short_out` bit-equal the same lanes of
/// `long_out`, row by row (`rows` rows at the given strides).
void ExpectLanesBitEqual(const float* short_out, size_t short_stride,
                         const float* long_out, size_t long_stride,
                         size_t rows, size_t n, const std::string& what) {
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(short_out[i * short_stride + j], long_out[i * long_stride + j])
          << what << " n=" << n << " at (" << i << "," << j << ")";
    }
  }
}

/// A rows x cols matrix whose first `n` columns of every row are `m`'s.
Matrix WidenedCopy(const Matrix& m, size_t cols, Rng* rng) {
  Matrix out = Matrix::Gaussian(m.rows(), cols, rng);
  for (size_t i = 0; i < m.rows(); ++i) {
    std::memcpy(out.Row(i), m.Row(i), m.cols() * sizeof(float));
  }
  return out;
}

/// The masked-tail policy: for every n in 1..2W+1, lanes [0, n) of a
/// length-n call must be bit-equal to the same lanes of a length-(n + W)
/// call on the same data, so a lane computes the same bits whether it
/// lands in a masked tail or in a full vector.
void CheckTailLanes(const KernelTable* t, size_t w) {
  Rng rng(108);
  const std::string name = t->name;
  for (size_t n = 1; n <= 2 * w + 1; ++n) {
    const size_t wide = n + w, rows = 5, k = 7;
    const Matrix m = Matrix::Gaussian(rows, n, &rng);
    const Matrix mw = WidenedCopy(m, wide, &rng);
    std::vector<float> bias(wide);
    for (float& x : bias) x = static_cast<float>(rng.Uniform() - 0.5);

    std::vector<float> y(bias), yw(bias);
    t->axpy(0.7f, m.data(), y.data(), n);
    t->axpy(0.7f, mw.data(), yw.data(), wide);
    ExpectLanesBitEqual(y.data(), 0, yw.data(), 0, 1, n, name + " axpy");

    std::vector<float> cs(wide, 0.5f), csw(wide, 0.5f);
    t->column_sums_range(m, cs.data(), 1, rows, /*accumulate=*/true);
    t->column_sums_range(mw, csw.data(), 1, rows, /*accumulate=*/true);
    ExpectLanesBitEqual(cs.data(), 0, csw.data(), 0, 1, n,
                        name + " column_sums_range");

    // Adam over [w | g | m | v] = the four rows of `mw` (v made >= 0).
    std::vector<float> st[4], stw[4];
    for (size_t r = 0; r < 4; ++r) {
      stw[r].assign(mw.Row(r), mw.Row(r) + wide);
      if (r == 3) {
        for (float& x : stw[r]) x = std::fabs(x);
      }
      st[r].assign(stw[r].begin(), stw[r].begin() + n);
    }
    t->adam_update(st[0].data(), st[1].data(), st[2].data(), st[3].data(), n,
                   1e-3f, 0.9f, 0.999f, 1e-8f);
    t->adam_update(stw[0].data(), stw[1].data(), stw[2].data(),
                   stw[3].data(), wide, 1e-3f, 0.9f, 0.999f, 1e-8f);
    for (size_t r = 0; r < 4; ++r) {
      ExpectLanesBitEqual(st[r].data(), 0, stw[r].data(), 0, 1, n,
                          name + " adam_update");
    }

    // GEMM output columns: B (k x n) is the leading columns of B (k x wide).
    const Matrix in = Matrix::Gaussian(rows, k, &rng);
    const Matrix b = Matrix::Gaussian(k, n, &rng);
    const Matrix bw = WidenedCopy(b, wide, &rng);
    Matrix c(rows, n), cw(rows, wide);
    t->matmul_range(in, b, &c, 0, rows, false);
    t->matmul_range(in, bw, &cw, 0, rows, false);
    ExpectLanesBitEqual(c.data(), n, cw.data(), wide, rows, n,
                        name + " matmul_range");
    t->matmul_bias_act_range(in, b, &c, 0, rows, bias.data(), true);
    t->matmul_bias_act_range(in, bw, &cw, 0, rows, bias.data(), true);
    ExpectLanesBitEqual(c.data(), n, cw.data(), wide, rows, n,
                        name + " matmul_bias_act_range");
  }
}

TEST(SimdKernelsTest, PaddedOperandsBitEqualContiguousWithinBackend) {
  // Padding and masked tails change layout, never arithmetic: each backend
  // must produce bit-identical results for padded and contiguous operands,
  // and for a lane in a masked tail and in a full vector.
  Rng rng(107);
  for (const KernelTable* t : AllBackends()) {
    for (size_t n : {2, 7, 16, 33}) {
      const size_t m = 19, k = 21;
      const Matrix a = Matrix::Gaussian(m, k, &rng);
      const Matrix b = Matrix::Gaussian(k, n, &rng);
      Matrix ap, bp;
      ap.ResizePadded(m, k);
      bp.ResizePadded(k, n);
      for (size_t i = 0; i < m; ++i) {
        std::memcpy(ap.Row(i), a.Row(i), k * sizeof(float));
      }
      for (size_t i = 0; i < k; ++i) {
        std::memcpy(bp.Row(i), b.Row(i), n * sizeof(float));
      }
      ASSERT_GE(ap.stride(), ap.cols());
      Matrix c(m, n);
      Matrix cp;
      cp.ResizePadded(m, n);
      t->matmul_range(a, b, &c, 0, m, false);
      t->matmul_range(ap, bp, &cp, 0, m, false);
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
          ASSERT_EQ(c(i, j), cp(i, j))
              << t->name << " padded (" << i << "," << j << ")";
        }
      }
    }
    // W = the backend's vector width (scalar has none; 8 is arbitrary).
    CheckTailLanes(t, std::strcmp(t->name, "avx512") == 0 ? 16 : 8);
  }
}

TEST(SimdKernelsTest, RowRangeCallsMatchFullRangeCall) {
  // Row-range calls (the parallel wrapper's unit, and the chunks of the
  // batch-parallel SLIM forward) must write exactly the requested rows,
  // identically to the full-range call.
  for (const KernelTable* t : AllBackends()) {
    Rng rng(304);
    const size_t m = 23, k = 37, n = 29;
    const Matrix a = Matrix::Gaussian(m, k, &rng);
    const Matrix b = Matrix::Gaussian(k, n, &rng);
    std::vector<float> bias(n);
    for (float& x : bias) x = 0.5f * static_cast<float>(rng.Gaussian());
    const size_t bytes = m * n * sizeof(float);
    Matrix full(m, n), part(m, n);
    t->matmul_range(a, b, &full, 0, m, false);
    t->matmul_range(a, b, &part, 0, 9, false);
    t->matmul_range(a, b, &part, 9, m, false);
    ASSERT_EQ(std::memcmp(full.data(), part.data(), bytes), 0)
        << t->name << " matmul_range";
    t->matmul_bias_act_range(a, b, &full, 0, m, bias.data(), true);
    t->matmul_bias_act_range(a, b, &part, 0, 9, bias.data(), true);
    t->matmul_bias_act_range(a, b, &part, 9, m, bias.data(), true);
    ASSERT_EQ(std::memcmp(full.data(), part.data(), bytes), 0)
        << t->name << " matmul_bias_act_range";
  }
}

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

TEST(SimdKernelsTest, OneRowKernelBitEqualsDenseRowPerBackend) {
  // The one-row kernel (MatMulRowBiasAct) reduces over a row's nonzero
  // inputs only; each output row must equal the dense fused kernel's row
  // bit for bit. Reductions run from one row to thousands; the longest
  // are skipped where B would pass 4M floats.
  const size_t kNs[] = {2, 7, 16, 31, 33, 64, 1024};
  const size_t kKs[] = {1, 2, 5, 16, 33, 100, 259, 529, 4113, 32785};
  std::vector<uint32_t> nz;  // shared grow-only scratch, as callers hold it
  for (const KernelTable* t : AllBackends()) {
    ASSERT_TRUE(SetKernelBackendForTesting(t->name));
    Rng rng(305);
    for (size_t n : kNs) {
      for (size_t k : kKs) {
        if (k * n > (size_t{1} << 22)) continue;
        const Matrix a = SparseRows(k, &rng);
        const Matrix b = Matrix::Gaussian(k, n, &rng);
        std::vector<float> bias(n);
        for (float& x : bias) x = 0.5f * static_cast<float>(rng.Gaussian());
        for (const float* bp : {static_cast<const float*>(nullptr),
                                static_cast<const float*>(bias.data())}) {
          for (bool relu : {false, true}) {
            Matrix dense(a.rows(), n);
            MatMulBiasActRange(a, b, &dense, 0, a.rows(), bp, relu);
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

TEST(SimdKernelsTest, ResolveKernelChoiceTable) {
  // (env, cpu_has_avx2, avx2_compiled, cpu_has_avx512, avx512_compiled)
  // -> backend, every interesting cell.
  // auto / unset: widest available backend wins.
  EXPECT_STREQ(ResolveKernelChoice(nullptr, true, true, true, true),
               "avx512");
  EXPECT_STREQ(ResolveKernelChoice(nullptr, true, true, false, true), "avx2");
  EXPECT_STREQ(ResolveKernelChoice(nullptr, true, true, true, false), "avx2");
  EXPECT_STREQ(ResolveKernelChoice(nullptr, false, true, false, true),
               "scalar");
  EXPECT_STREQ(ResolveKernelChoice(nullptr, true, false, false, false),
               "scalar");
  EXPECT_STREQ(ResolveKernelChoice("auto", true, true, true, true),
               "avx512");
  EXPECT_STREQ(ResolveKernelChoice("auto", true, true, false, false),
               "avx2");
  EXPECT_STREQ(ResolveKernelChoice("auto", false, false, false, false),
               "scalar");
  EXPECT_STREQ(ResolveKernelChoice("", true, true, true, true), "avx512");
  // Explicit scalar always wins.
  EXPECT_STREQ(ResolveKernelChoice("scalar", true, true, true, true),
               "scalar");
  // Explicit avx2 ignores avx512 availability; falls back to scalar.
  EXPECT_STREQ(ResolveKernelChoice("avx2", true, true, true, true), "avx2");
  EXPECT_STREQ(ResolveKernelChoice("avx2", false, true, true, true),
               "scalar");
  EXPECT_STREQ(ResolveKernelChoice("avx2", true, false, true, true),
               "scalar");
  // Explicit avx512 falls back to the best remaining backend.
  EXPECT_STREQ(ResolveKernelChoice("avx512", true, true, true, true),
               "avx512");
  EXPECT_STREQ(ResolveKernelChoice("avx512", true, true, false, true),
               "avx2");
  EXPECT_STREQ(ResolveKernelChoice("avx512", true, true, true, false),
               "avx2");
  EXPECT_STREQ(ResolveKernelChoice("avx512", false, false, false, true),
               "scalar");
  // Unknown values resolve like auto.
  EXPECT_STREQ(ResolveKernelChoice("bogus", true, true, true, true),
               "avx512");
  EXPECT_STREQ(ResolveKernelChoice("bogus", true, true, false, false),
               "avx2");
  EXPECT_STREQ(ResolveKernelChoice("bogus", false, true, false, true),
               "scalar");
}

TEST(SimdKernelsTest, SetKernelBackendForTestingSwitchesTable) {
  ASSERT_TRUE(SetKernelBackendForTesting("scalar"));
  EXPECT_STREQ(KernelBackendName(), "scalar");
  if (HaveAvx2()) {
    ASSERT_TRUE(SetKernelBackendForTesting("avx2"));
    EXPECT_STREQ(KernelBackendName(), "avx2");
  }
  if (HaveAvx512()) {
    ASSERT_TRUE(SetKernelBackendForTesting("avx512"));
    EXPECT_STREQ(KernelBackendName(), "avx512");
  }
  EXPECT_FALSE(SetKernelBackendForTesting("neon"));
  // Restore the env-resolved default for whatever runs next.
  ASSERT_TRUE(SetKernelBackendForTesting("auto"));
}

}  // namespace
}  // namespace splash
