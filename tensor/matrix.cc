// Copyright 2026 The SPLASH Reproduction Authors.
//
// Parallel entry points for the dense kernels: partition output rows on
// the global ThreadPool when the flop count clears the gate, then hand
// each range to the runtime-selected backend (tensor/simd.h). The serial
// kernel bodies themselves live in tensor/kernels_*.cc;
// per-element accumulation order never depends on the partition, so for a
// fixed backend parallel results are bit-identical to serial ones.

#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "runtime/thread_pool.h"
#include "tensor/packed.h"
#include "tensor/simd.h"

namespace splash {

namespace {

// Parallel dispatch gate: GEMMs below this many flops (2*m*k*n) run serial
// — the ParallelFor wake/join costs a few microseconds, so tiny kernels
// (bias outer products, per-query ops) must not pay it.
constexpr size_t kParallelMinFlops = size_t{1} << 18;

// Floor on rows per chunk so a chunk amortizes its dispatch.
constexpr size_t kMinRowChunk = 8;

/// Partitions `rows` across the pool when `flops` clears the gate; returns
/// true if the parallel path ran. fn(row_begin, row_end) must write
/// disjoint output rows.
template <typename Fn>
bool ParallelRows(size_t rows, size_t flops, const Fn& fn) {
  ThreadPool* pool = ThreadPool::Global();
  const size_t t = pool->num_threads();
  if (t <= 1 || flops < kParallelMinFlops || rows < 2 * kMinRowChunk) {
    return false;
  }
  const size_t grain =
      std::max(kMinRowChunk, (rows + 4 * t - 1) / (4 * t));
  pool->ParallelFor(0, rows, grain,
                    [&fn](size_t r0, size_t r1, size_t) { fn(r0, r1); });
  return true;
}

}  // namespace

void MatMulRange(const Matrix& a, const Matrix& b, Matrix* c,
                 size_t row_begin, size_t row_end, bool accumulate) {
  Kernels().matmul_range(a, b, c, row_begin, row_end, accumulate);
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* c, bool accumulate) {
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  const KernelTable& kt = Kernels();
  if (!ParallelRows(m, 2 * m * k * n, [&](size_t r0, size_t r1) {
        kt.matmul_range(a, b, c, r0, r1, accumulate);
      })) {
    kt.matmul_range(a, b, c, 0, m, accumulate);
  }
}

void MatMulBiasActRange(const Matrix& a, const Matrix& b, Matrix* c,
                        size_t row_begin, size_t row_end, const float* bias,
                        bool relu) {
  Kernels().matmul_bias_act_range(a, b, c, row_begin, row_end, bias, relu);
}

void MatMulPackedRange(const Matrix& a, const PackedMatrix& b, Matrix* c,
                       size_t row_begin, size_t row_end, bool accumulate) {
  Kernels().matmul_packed_range(a, b, c, row_begin, row_end, accumulate);
}

void MatMulPacked(const Matrix& a, const PackedMatrix& b, Matrix* c,
                  bool accumulate) {
  const size_t m = a.rows(), k = a.cols(), n = b.n();
  const KernelTable& kt = Kernels();
  if (!ParallelRows(m, 2 * m * k * n, [&](size_t r0, size_t r1) {
        kt.matmul_packed_range(a, b, c, r0, r1, accumulate);
      })) {
    kt.matmul_packed_range(a, b, c, 0, m, accumulate);
  }
}

void MatMulPackedBiasActRange(const Matrix& a, const PackedMatrix& b,
                              Matrix* c, size_t row_begin, size_t row_end,
                              const float* bias, bool relu) {
  Kernels().matmul_packed_bias_act_range(a, b, c, row_begin, row_end, bias,
                                         relu);
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
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  const KernelTable& kt = Kernels();
  if (!ParallelRows(m, 2 * m * k * n, [&](size_t r0, size_t r1) {
        kt.matmul_transb_range(a, b, c, r0, r1, accumulate);
      })) {
    kt.matmul_transb_range(a, b, c, 0, m, accumulate);
  }
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
  const KernelTable& kt = Kernels();
  if (!ParallelRows(m, 2 * r * m * n, [&](size_t i0, size_t i1) {
        kt.matmul_transa_output_range(a, b, c, i0, i1, accumulate);
      })) {
    if (!accumulate) {
      for (size_t i = 0; i < m; ++i) {
        std::memset(c->Row(i), 0, n * sizeof(float));
      }
    }
    kt.matmul_transa_range(a, b, c, 0, r);
  }
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
