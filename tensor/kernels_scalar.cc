// Copyright 2026 The SPLASH Reproduction Authors.
//
// The scalar kernel backend: the pre-dispatch tensor/matrix.cc loops,
// verbatim, kept as the bit-exact determinism reference (DESIGN.md §6).
// The one exception is AdamUpdate's flush of subnormal moments to +0,
// which every backend applies identically.
// Blocked for locality; the inner loops are unit-stride FMAs the compiler
// auto-vectorizes at whatever ISA the BUILD targets — which is exactly why
// this backend's numbers depend on build flags and the explicit AVX2
// backend exists. Do not "optimize" these loops: every determinism oracle
// (serve watermark replay, depth1==depth0, the recovery oracles) is
// anchored to their accumulation order.
//
// All kernels are stride-aware via Matrix::Row(); the only flat-memory
// fast paths check IsContiguous() first and fall back to per-row loops.

#include <algorithm>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <cstring>

#include "tensor/matrix.h"
#include "tensor/simd.h"

namespace splash {

namespace {

// Panel sizes: kBlockK * kBlockJ floats of `b` (64KiB at 128x128) stay hot
// while a stripe of `a` streams through.
constexpr size_t kBlockK = 128;
constexpr size_t kBlockJ = 128;

/// The fused layers' epilogue on one output row: + bias, then ReLU — the
/// arithmetic of the historical AddRowVector and ReluInPlace passes.
void ScalarEpilogue(float* row, size_t n, const float* bias, bool relu) {
  if (bias != nullptr) {
    if (relu) {
      for (size_t j = 0; j < n; ++j) {
        const float v = row[j] + bias[j];
        row[j] = v > 0.0f ? v : 0.0f;
      }
    } else {
      for (size_t j = 0; j < n; ++j) row[j] += bias[j];
    }
  } else if (relu) {
    for (size_t j = 0; j < n; ++j) row[j] = row[j] > 0.0f ? row[j] : 0.0f;
  }
}

void ScalarMatMulRange(const Matrix& a, const Matrix& b, Matrix* c,
                       size_t row_begin, size_t row_end, bool accumulate) {
  const size_t k = a.cols(), n = b.cols();
  assert(b.rows() == k);
  assert(c->rows() == a.rows() && c->cols() == n);
  assert(row_begin <= row_end && row_end <= a.rows());
  if (!accumulate) {
    for (size_t i = row_begin; i < row_end; ++i) {
      std::memset(c->Row(i), 0, n * sizeof(float));
    }
  }
  for (size_t j0 = 0; j0 < n; j0 += kBlockJ) {
    const size_t j1 = std::min(n, j0 + kBlockJ);
    for (size_t k0 = 0; k0 < k; k0 += kBlockK) {
      const size_t k1 = std::min(k, k0 + kBlockK);
      for (size_t i = row_begin; i < row_end; ++i) {
        const float* arow = a.Row(i);
        float* crow = c->Row(i);
        for (size_t kk = k0; kk < k1; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;  // masked/sparse rows are common
          const float* brow = b.Row(kk);
          // Unit-stride FMA over the output row: auto-vectorizes.
          for (size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void ScalarMatMulBiasActRange(const Matrix& a, const Matrix& b, Matrix* c,
                              size_t row_begin, size_t row_end,
                              const float* bias, bool relu) {
  // GEMM then an epilogue pass — the identical arithmetic the pre-fusion
  // callers ran (MatMul, then row[j] + bias[j], then ReLU), so scalar
  // results are bit-equal to the historical three-pass sequence. Only the
  // SIMD backends fuse the epilogue into the tile store.
  ScalarMatMulRange(a, b, c, row_begin, row_end, /*accumulate=*/false);
  for (size_t i = row_begin; i < row_end; ++i) {
    ScalarEpilogue(c->Row(i), b.cols(), bias, relu);
  }
}

// The one-row kernel skips zero inputs exactly as the dense loops above do
// (`av == 0` continues), so each output sees the same ascending-k sequence
// of `+= av * b` updates from 0: bit-identical to the dense row.

void ScalarMatMulRowBiasAct(const float* a, uint32_t* nz, const Matrix& b,
                            float* c, const float* bias, bool relu) {
  // Branch-free compress: every position is stored, and the count moves
  // past it only for a nonzero entry.
  size_t nnz = 0;
  for (size_t i = 0; i < b.rows(); ++i) {
    nz[nnz] = static_cast<uint32_t>(i);
    nnz += a[i] != 0.0f;
  }
  const size_t n = b.cols();
  std::memset(c, 0, n * sizeof(float));
  for (size_t t = 0; t < nnz; ++t) {
    const float av = a[nz[t]];
    const float* brow = b.Row(nz[t]);
    for (size_t j = 0; j < n; ++j) c[j] += av * brow[j];
  }
  ScalarEpilogue(c, n, bias, relu);
}

void ScalarMatMulTransBRange(const Matrix& a, const Matrix& b, Matrix* c,
                             size_t row_begin, size_t row_end,
                             bool accumulate) {
  const size_t k = a.cols(), n = b.rows();
  assert(b.cols() == k);
  assert(c->rows() == a.rows() && c->cols() == n);
  assert(row_begin <= row_end && row_end <= a.rows());
  // Dot-product form: both operands are read with unit stride.
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* arow = a.Row(i);
    float* crow = c->Row(i);
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b.Row(j);
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      size_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        acc0 += arow[kk] * brow[kk];
        acc1 += arow[kk + 1] * brow[kk + 1];
        acc2 += arow[kk + 2] * brow[kk + 2];
        acc3 += arow[kk + 3] * brow[kk + 3];
      }
      float acc = (acc0 + acc1) + (acc2 + acc3);
      for (; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = accumulate ? crow[j] + acc : acc;
    }
  }
}

void ScalarMatMulTransARange(const Matrix& a, const Matrix& b, Matrix* c,
                             size_t r_begin, size_t r_end) {
  const size_t m = a.cols(), n = b.cols();
  assert(b.rows() == a.rows());
  assert(c->rows() == m && c->cols() == n);
  assert(r_begin <= r_end && r_end <= a.rows());
  (void)m;
  // Rank-1 update per input row: c[i, :] += a(rr, i) * b(rr, :). The inner
  // loop is again a unit-stride FMA over an output row. Never zeroes c —
  // see the contract on MatMulTransARange in tensor/matrix.h.
  for (size_t rr = r_begin; rr < r_end; ++rr) {
    const float* arow = a.Row(rr);
    const float* brow = b.Row(rr);
    for (size_t i = 0; i < a.cols(); ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c->Row(i);
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void ScalarAddRowVector(Matrix* m, const float* bias) {
  const size_t rows = m->rows(), cols = m->cols();
  for (size_t i = 0; i < rows; ++i) {
    float* row = m->Row(i);
    for (size_t j = 0; j < cols; ++j) row[j] += bias[j];
  }
}

void ScalarReluInPlace(Matrix* m) {
  if (m->IsContiguous()) {
    float* p = m->data();
    const size_t n = m->size();
    for (size_t i = 0; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
    return;
  }
  const size_t rows = m->rows(), cols = m->cols();
  for (size_t i = 0; i < rows; ++i) {
    float* row = m->Row(i);
    for (size_t j = 0; j < cols; ++j) row[j] = row[j] > 0.0f ? row[j] : 0.0f;
  }
}

void ScalarAxpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalarColumnSumsRange(const Matrix& m, float* out, size_t row_begin,
                           size_t row_end, bool accumulate) {
  const size_t cols = m.cols();
  if (!accumulate) std::memset(out, 0, cols * sizeof(float));
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* row = m.Row(i);
    for (size_t j = 0; j < cols; ++j) out[j] += row[j];
  }
}

/// x, or +0 where |x| < FLT_MIN (zero or subnormal); NaN passes through.
float FlushTiny(float x) { return std::fabs(x) < FLT_MIN ? 0.0f : x; }

void ScalarAdamUpdate(float* w, const float* g, float* m, float* v,
                      size_t n, float step, float beta1, float beta2,
                      float eps) {
  // Moments are stored flushed (see AdamUpdate in tensor/matrix.h); normal
  // values are the historical loop's bits.
  for (size_t i = 0; i < n; ++i) {
    m[i] = FlushTiny(beta1 * m[i] + (1.0f - beta1) * g[i]);
    v[i] = FlushTiny(beta2 * v[i] + (1.0f - beta2) * g[i] * g[i]);
    w[i] -= step * m[i] / (std::sqrt(v[i]) + eps);
  }
}

void ScalarSincosEncode(float x, float freq_decay, float* out, size_t dim) {
  // The historical degree/time encoder loop verbatim: libm sin/cos, the
  // chained-multiply frequency ladder, and the 0.1x odd tail.
  float freq = 1.0f;
  for (size_t j = 0; j + 1 < dim; j += 2) {
    const float a = x * freq;
    out[j] = std::sin(a);
    out[j + 1] = std::cos(a);
    freq *= freq_decay;
  }
  if (dim % 2 == 1) out[dim - 1] = x * 0.1f;
}

const KernelTable kScalarTable = {
    "scalar",
    ScalarMatMulRange,
    ScalarMatMulBiasActRange,
    ScalarMatMulTransBRange,
    ScalarMatMulTransARange,
    ScalarAddRowVector,
    ScalarReluInPlace,
    ScalarAxpy,
    ScalarColumnSumsRange,
    ScalarAdamUpdate,
    ScalarSincosEncode,
    ScalarMatMulRowBiasAct,
};

}  // namespace

const KernelTable* GetScalarKernels() { return &kScalarTable; }

}  // namespace splash
