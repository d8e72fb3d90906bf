// Copyright 2026 The SPLASH Reproduction Authors.
//
// Entry points for the dense kernels: each hands the whole operation to
// the runtime-selected backend (tensor/simd.h). The kernel bodies live in
// tensor/kernels_*.cc.

#include "tensor/matrix.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/simd.h"

namespace splash {

void MatMulRange(const Matrix& a, const Matrix& b, Matrix* c,
                 size_t row_begin, size_t row_end, bool accumulate) {
  Kernels().matmul_range(a, b, c, row_begin, row_end, accumulate);
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* c, bool accumulate) {
  Kernels().matmul_range(a, b, c, 0, a.rows(), accumulate);
}

void MatMulBiasActRange(const Matrix& a, const Matrix& b, Matrix* c,
                        size_t row_begin, size_t row_end, const float* bias,
                        bool relu) {
  Kernels().matmul_bias_act_range(a, b, c, row_begin, row_end, bias, relu);
}

void MatMulRowBiasAct(const Matrix& a, size_t row, const Matrix& b,
                      Matrix* c, const float* bias, bool relu,
                      std::vector<uint32_t>* nz) {
  assert(b.rows() == a.cols());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  const size_t scratch = RowIndexScratchSize(a.cols());
  if (nz->size() < scratch) nz->resize(scratch);
  Kernels().matmul_row_bias_act(a.Row(row), nz->data(), b, c->Row(row), bias,
                                relu);
}

void MatMulTransBRange(const Matrix& a, const Matrix& b, Matrix* c,
                       size_t row_begin, size_t row_end, bool accumulate) {
  Kernels().matmul_transb_range(a, b, c, row_begin, row_end, accumulate);
}

void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* c,
                  bool accumulate) {
  Kernels().matmul_transb_range(a, b, c, 0, a.rows(), accumulate);
}

void MatMulTransARange(const Matrix& a, const Matrix& b, Matrix* c,
                       size_t r_begin, size_t r_end) {
  Kernels().matmul_transa_range(a, b, c, r_begin, r_end);
}

void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* c,
                  bool accumulate) {
  const size_t r = a.rows(), m = a.cols(), n = b.cols();
  assert(b.rows() == r);
  assert(c->rows() == m && c->cols() == n);
  if (!accumulate) {
    for (size_t i = 0; i < m; ++i) {
      std::memset(c->Row(i), 0, n * sizeof(float));
    }
  }
  Kernels().matmul_transa_range(a, b, c, 0, r);
}

void AddRowVector(Matrix* m, const float* bias) {
  Kernels().add_row_vector(m, bias);
}

void ReluInPlace(Matrix* m) { Kernels().relu_inplace(m); }

void Axpy(float alpha, const float* x, float* y, size_t n) {
  Kernels().axpy(alpha, x, y, n);
}

void ColumnSums(const Matrix& m, float* out) {
  ColumnSumsRange(m, out, 0, m.rows(), /*accumulate=*/false);
}

void ColumnSumsRange(const Matrix& m, float* out, size_t row_begin,
                     size_t row_end, bool accumulate) {
  Kernels().column_sums_range(m, out, row_begin, row_end, accumulate);
}

void AdamUpdate(float* w, const float* g, float* m, float* v, size_t n,
                float step, float beta1, float beta2, float eps) {
  Kernels().adam_update(w, g, m, v, n, step, beta1, beta2, eps);
}

void SincosEncode(float x, float freq_decay, float* out, size_t dim) {
  Kernels().sincos_encode(x, freq_decay, out, dim);
}

bool SolveRidge(const Matrix& x, const Matrix& y, float lambda, Matrix* w) {
  const size_t d = x.cols(), c = y.cols();
  assert(x.rows() == y.rows());
  Matrix gram(d, d);
  MatMulTransA(x, x, &gram);
  Matrix rhs(d, c);
  MatMulTransA(x, y, &rhs);
  for (size_t i = 0; i < d; ++i) gram(i, i) += lambda;

  // In-place Cholesky gram = L L^T; retry with a boosted diagonal once if a
  // pivot collapses (degenerate probe features).
  for (int attempt = 0; attempt < 2; ++attempt) {
    Matrix l = gram;
    bool ok = true;
    for (size_t i = 0; i < d && ok; ++i) {
      for (size_t j = 0; j <= i; ++j) {
        float sum = l(i, j);
        for (size_t kk = 0; kk < j; ++kk) sum -= l(i, kk) * l(j, kk);
        if (i == j) {
          if (sum <= 1e-10f) {
            ok = false;
            break;
          }
          l(i, i) = std::sqrt(sum);
        } else {
          l(i, j) = sum / l(j, j);
        }
      }
    }
    if (!ok) {
      for (size_t i = 0; i < d; ++i) gram(i, i) += 1e-2f + lambda;
      continue;
    }
    // Forward/back substitution per output column.
    w->Resize(d, c);
    std::vector<float> zcol(d);
    for (size_t col = 0; col < c; ++col) {
      for (size_t i = 0; i < d; ++i) {
        float sum = rhs(i, col);
        for (size_t kk = 0; kk < i; ++kk) sum -= l(i, kk) * zcol[kk];
        zcol[i] = sum / l(i, i);
      }
      for (size_t ii = d; ii-- > 0;) {
        float sum = zcol[ii];
        for (size_t kk = ii + 1; kk < d; ++kk) sum -= l(kk, ii) * (*w)(kk, col);
        (*w)(ii, col) = sum / l(ii, ii);
      }
    }
    return true;
  }
  return false;
}

}  // namespace splash
