// Copyright 2026 The SPLASH Reproduction Authors.
//
// Blocked kernels vs naive references, including shapes that are not
// multiples of the blocking constants.

#include "tensor/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/rng.h"

namespace splash {
namespace {

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

void ExpectNear(const Matrix& got, const Matrix& want, float tol) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < got.rows(); ++i) {
    for (size_t j = 0; j < got.cols(); ++j) {
      EXPECT_NEAR(got(i, j), want(i, j), tol) << "at (" << i << "," << j
                                              << ")";
    }
  }
}

TEST(MatrixTest, MatMulMatchesNaiveAcrossShapes) {
  Rng rng(1);
  // Deliberately awkward shapes: smaller than, equal to, and straddling the
  // 128-wide blocking panels.
  const size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 7}, {17, 128, 33}, {40, 130, 129}, {130, 64, 2}};
  for (const auto& s : shapes) {
    const Matrix a = Matrix::Gaussian(s[0], s[1], &rng);
    const Matrix b = Matrix::Gaussian(s[1], s[2], &rng);
    Matrix c(s[0], s[2]);
    MatMul(a, b, &c);
    ExpectNear(c, NaiveMatMul(a, b), 1e-3f);
  }
}

TEST(MatrixTest, MatMulAccumulates) {
  Rng rng(2);
  const Matrix a = Matrix::Gaussian(4, 6, &rng);
  const Matrix b = Matrix::Gaussian(6, 3, &rng);
  Matrix c = Matrix::Ones(4, 3);
  MatMul(a, b, &c, /*accumulate=*/true);
  const Matrix ref = NaiveMatMul(a, b);
  for (size_t i = 0; i < c.rows(); ++i) {
    for (size_t j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(c(i, j), ref(i, j) + 1.0f, 1e-4f);
    }
  }
}

TEST(MatrixTest, TransposedVariantsMatchNaive) {
  Rng rng(3);
  const Matrix a = Matrix::Gaussian(9, 13, &rng);   // MxK
  const Matrix bt = Matrix::Gaussian(11, 13, &rng);  // NxK
  Matrix b_kn;
  Transpose(bt, &b_kn);
  ASSERT_EQ(b_kn.rows(), 13u);
  ASSERT_EQ(b_kn.cols(), 11u);
  Matrix c(9, 11);
  MatMul(a, b_kn, &c);
  for (size_t i = 0; i < 9; ++i) {
    for (size_t j = 0; j < 11; ++j) {
      float acc = 0.0f;
      for (size_t k = 0; k < 13; ++k) acc += a(i, k) * bt(j, k);
      EXPECT_NEAR(c(i, j), acc, 1e-3f);
    }
  }

  const Matrix at = Matrix::Gaussian(13, 9, &rng);  // RxM
  const Matrix b = Matrix::Gaussian(13, 11, &rng);  // RxN
  Matrix c2(9, 11);
  MatMulTransA(at, b, &c2);
  for (size_t i = 0; i < 9; ++i) {
    for (size_t j = 0; j < 11; ++j) {
      float acc = 0.0f;
      for (size_t r = 0; r < 13; ++r) acc += at(r, i) * b(r, j);
      EXPECT_NEAR(c2(i, j), acc, 1e-3f);
    }
  }
}

// The tiled Transpose is a copy: every element lands bit for bit where the
// element loop puts it, for shapes with and without whole tiles, from
// padded and contiguous sources, into a reused (larger) destination.
TEST(MatrixTest, TransposeEqualsElementLoop) {
  Rng rng(17);
  const size_t shapes[][2] = {{1, 1}, {3, 70}, {128, 64}, {65, 129}};
  Matrix t;
  for (const auto& shape : shapes) {
    const size_t rows = shape[0], cols = shape[1];
    for (const bool padded : {false, true}) {
      SCOPED_TRACE(::testing::Message() << rows << "x" << cols
                                        << (padded ? " padded" : ""));
      Matrix a;
      if (padded) {
        a.ResizePadded(rows, cols);
      } else {
        a.Resize(rows, cols);
      }
      for (size_t i = 0; i < rows; ++i) {
        rng.FillGaussian(a.Row(i), cols, 1.0f);
      }
      Transpose(a, &t);
      ASSERT_EQ(t.rows(), cols);
      ASSERT_EQ(t.cols(), rows);
      ASSERT_TRUE(t.IsContiguous());
      for (size_t i = 0; i < rows; ++i) {
        for (size_t j = 0; j < cols; ++j) {
          ASSERT_EQ(std::memcmp(&t(j, i), &a(i, j), sizeof(float)), 0)
              << "element (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(MatrixTest, ColumnSumsRangeSumsTheRowRange) {
  Matrix m(3, 3);
  m(0, 0) = -1.0f;
  m(0, 1) = 2.0f;
  m(1, 2) = -5.0f;
  m(2, 0) = 4.0f;
  float sums[3] = {9.0f, 9.0f, 9.0f};
  ColumnSumsRange(m, sums, 0, 2);
  EXPECT_FLOAT_EQ(sums[0], -1.0f);
  EXPECT_FLOAT_EQ(sums[1], 2.0f);
  EXPECT_FLOAT_EQ(sums[2], -5.0f);
  ColumnSumsRange(m, sums, 2, 3, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(sums[0], 3.0f);
  EXPECT_FLOAT_EQ(sums[1], 2.0f);
}

TEST(MatrixTest, ResizeIsGrowOnlyStorage) {
  Matrix m(2, 2);
  m(1, 1) = 7.0f;
  const float* before = m.data();
  m.Resize(1, 2);  // shrink view: no reallocation
  EXPECT_EQ(m.data(), before);
  m.Resize(2, 2);  // back within capacity: data still intact
  EXPECT_EQ(m.data(), before);
  EXPECT_FLOAT_EQ(m(1, 1), 7.0f);
}

TEST(MatrixTest, AllocationsAre64ByteAligned) {
  // Every backing store is 64B-aligned, contiguous or padded — the SIMD
  // backends' aligned-row guarantee starts here.
  for (size_t cols : {1, 2, 7, 16, 48, 130}) {
    Matrix m(5, cols);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u)
        << "cols=" << cols;
  }
}

TEST(MatrixTest, PaddedResizeAlignsEveryRow) {
  for (size_t cols : {1, 2, 7, 15, 16, 17, 48, 130}) {
    Matrix m;
    m.ResizePadded(9, cols);
    EXPECT_GE(m.stride(), m.cols());
    EXPECT_EQ(m.stride() % Matrix::kPadFloats, 0u) << "cols=" << cols;
    for (size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(r)) % 64, 0u)
          << "cols=" << cols << " row=" << r;
    }
    // Accessors agree on the padded layout.
    m(8, cols - 1) = 3.5f;
    EXPECT_FLOAT_EQ(m.Row(8)[cols - 1], 3.5f);
    EXPECT_EQ(m.IsContiguous(), m.stride() == m.cols() || m.rows() <= 1);
  }
}

TEST(MatrixTest, PaddedKernelsMatchContiguousThroughPublicApi) {
  // The dispatching entry points accept any operand stride mix and must
  // produce bit-identical results to the all-contiguous call.
  Rng rng(9);
  const size_t m = 23, k = 19, n = 11;
  const Matrix a = Matrix::Gaussian(m, k, &rng);
  const Matrix b = Matrix::Gaussian(k, n, &rng);
  Matrix ap, bp;
  ap.ResizePadded(m, k);
  bp.ResizePadded(k, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < k; ++j) ap(i, j) = a(i, j);
  }
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < n; ++j) bp(i, j) = b(i, j);
  }
  Matrix c(m, n), cp;
  cp.ResizePadded(m, n);
  MatMul(a, b, &c);
  MatMul(ap, bp, &cp);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(c(i, j), cp(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(MatrixTest, TransARangeNeverZeroesOutput) {
  // Range calls accumulate into whatever the caller left in c (the fix for
  // the old full-output memset that was only correct for full-range
  // callers); the full MatMulTransA entry point still honors accumulate.
  Rng rng(10);
  const Matrix a = Matrix::Gaussian(6, 4, &rng);  // RxM
  const Matrix b = Matrix::Gaussian(6, 3, &rng);  // RxN
  Matrix whole(4, 3);
  MatMulTransA(a, b, &whole);  // accumulate=false: zeroes, then full sum

  // Same product assembled from two reduction sub-ranges over a pre-zeroed
  // output: bit-identical because per-element order is still ascending rr.
  Matrix split(4, 3);
  MatMulTransARange(a, b, &split, 0, 2);
  MatMulTransARange(a, b, &split, 2, 6);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      ASSERT_EQ(whole(i, j), split(i, j)) << "(" << i << "," << j << ")";
    }
  }

  // A sub-range call on a dirty output adds to it instead of wiping rows
  // outside (or inside) the range.
  Matrix dirty = Matrix::Ones(4, 3);
  MatMulTransARange(a, b, &dirty, 0, 0);  // empty range: no-op
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) ASSERT_EQ(dirty(i, j), 1.0f);
  }
  MatMulTransARange(a, b, &dirty, 0, 6);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      // Accumulating into 1.0 reorders the rounding, so compare to
      // tolerance rather than bitwise.
      ASSERT_NEAR(dirty(i, j), whole(i, j) + 1.0f, 1e-5f);
    }
  }
}

TEST(MatrixTest, AdamUpdateMatchesReferenceFormula) {
  const size_t n = 21;  // exercises the 8-wide body and a 5-lane tail
  std::vector<float> w(n), g(n), m(n), v(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = 0.5f - 0.01f * static_cast<float>(i);
    g[i] = 0.02f * static_cast<float>(i) - 0.1f;
    m[i] = 0.0f;
    v[i] = 0.0f;
  }
  std::vector<float> w_ref = w, m_ref = m, v_ref = v;
  const float step = 1e-3f, b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
  AdamUpdate(w.data(), g.data(), m.data(), v.data(), n, step, b1, b2, eps);
  for (size_t i = 0; i < n; ++i) {
    m_ref[i] = b1 * m_ref[i] + (1.0f - b1) * g[i];
    v_ref[i] = b2 * v_ref[i] + (1.0f - b2) * g[i] * g[i];
    w_ref[i] -= step * m_ref[i] / (std::sqrt(v_ref[i]) + eps);
    EXPECT_NEAR(w[i], w_ref[i], 1e-6f) << "w[" << i << "]";
    EXPECT_NEAR(m[i], m_ref[i], 1e-7f) << "m[" << i << "]";
    EXPECT_NEAR(v[i], v_ref[i], 1e-7f) << "v[" << i << "]";
  }
}

TEST(MatrixTest, SolveRidgeRecoversLinearMap) {
  Rng rng(4);
  const size_t n = 200, d = 8, c = 3;
  const Matrix x = Matrix::Gaussian(n, d, &rng);
  const Matrix w_true = Matrix::Gaussian(d, c, &rng);
  Matrix y(n, c);
  MatMul(x, w_true, &y);
  Matrix w;
  ASSERT_TRUE(SolveRidge(x, y, 1e-4f, &w));
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < c; ++j) {
      EXPECT_NEAR(w(i, j), w_true(i, j), 1e-2f);
    }
  }
}

}  // namespace
}  // namespace splash
