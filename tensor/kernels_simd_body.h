// Copyright 2026 The SPLASH Reproduction Authors.
//
// The width-generic SIMD kernel body (DESIGN.md §6). Exactly two
// translation units include this header — tensor/kernels_avx2.cc and
// tensor/kernels_avx512.cc — each compiled with its own ISA flags and each
// supplying a vector-traits struct T:
//
//   Vec, Mask                 the float vector and its tail-mask type
//   kWidth, kTileRows         lanes per vector; GEMM register-tile rows
//   kWideTileRows             rows of a 4-vector tile, 0 where none fits
//   Zero Set1 Load Store      unaligned full-vector access
//   TailMask MaskLoad         predicated access to the first `rem` lanes
//     MaskStore               (masked-off loads read zero, stores skip)
//   Add Sub Mul Div Max       lane-wise arithmetic; Fma(a, b, c) = a*b + c,
//     Sqrt Fma Fnma Abs         Fnma(a, b, c) = c - a*b
//     RoundNearest
//   ReduceAdd ReduceAdd4      horizontal sums of one / four vectors
//   FlushTiny                 lanes with |x| < FLT_MIN to +0, NaN kept
//   CompressNonzero           stores base + lane of the lanes that are not
//                             ±0, ascending, as one whole vector of
//                             indices; returns their count
//   SincosQuadrant            sincos quadrant select/negate (below)
//   Interleave                (s, c) lane interleave into pairs
//
// Every GEMM output element is one ascending-k FMA chain in one lane on
// either backend. The backends' bits part only where a dot product is
// split into W-lane partials (MatMulTransB) and folded by the horizontal
// sums, which keep each backend's own summation order.
//
// Register tiling:
//   - MatMul / fused epilogue: kTileRows x 2W output tiles (6x16 on avx2,
//     8x32 on avx512), then one W-wide vector, then a masked tail; the row
//     remainder runs as ONE multi-row pass.
//   - MatMulTransB: four W-lane dot accumulators per step, folded by
//     ReduceAdd4.
//   - MatMulTransA: the same GEMM tile over a transposed view of A,
//     resuming from C: 4-vector tiles of kWideTileRows rows where they
//     fit (R x 4 accumulators + 4 B vectors + 1 broadcast <= 32 zmm, so
//     6 rows on avx512; avx2's 16 ymm leave no room), then kTileRows x
//     2W, one vector and a masked tail. Each element is one ascending-rr
//     FMA chain from C's starting value, so serial and output-partitioned
//     calls stay bit-identical.
//
// Tail policy: every ragged edge is a masked vector, never a scalar loop,
// so no kernel reads or writes past a row's [0, cols) payload — bias
// vectors and unpadded operands are safe, and ASan stays quiet.
//
// Linkage: everything here sits in an anonymous namespace. Each including
// TU therefore gets private copies compiled for its own ISA; an external
// inline function would instead be a weak symbol the linker could resolve
// to the avx512 copy from code running on an avx2-only host. Keep it that
// way: no external-linkage helpers and no std:: function templates here.

#ifndef SPLASH_TENSOR_KERNELS_SIMD_BODY_H_
#define SPLASH_TENSOR_KERNELS_SIMD_BODY_H_

#include <cassert>
#include <cstring>

#include "tensor/matrix.h"
#include "tensor/simd.h"

namespace splash {
namespace {

// ---------------------------------------------------------------------------
// Full-vector steps with one masked tail.
// ---------------------------------------------------------------------------

template <class T>
struct FullLanes {
  static constexpr bool kTail = false;
  typename T::Vec Load(const float* p) const { return T::Load(p); }
  void Store(float* p, typename T::Vec v) const { T::Store(p, v); }
};

template <class T>
struct TailLanes {
  static constexpr bool kTail = true;
  typename T::Mask mask;
  typename T::Vec Load(const float* p) const { return T::MaskLoad(p, mask); }
  void Store(float* p, typename T::Vec v) const {
    T::MaskStore(p, mask, v);
  }
};

/// The lane accessor of a full vector, or of a masked tail vector.
template <class T, bool kTail>
inline auto LanesFor(typename T::Mask mask) {
  if constexpr (kTail) {
    return TailLanes<T>{mask};
  } else {
    (void)mask;
    return FullLanes<T>{};
  }
}

/// Visits [0, n) one vector at a time: f(j, lanes) for every full vector,
/// then once for the ragged tail, where `lanes` loads and stores only the
/// live lanes [j, n).
template <class T, class F>
inline void ForEachVector(size_t n, F&& f) {
  size_t j = 0;
  for (; j + T::kWidth <= n; j += T::kWidth) f(j, FullLanes<T>{});
  if (j < n) f(j, TailLanes<T>{T::TailMask(n - j)});
}

// ---------------------------------------------------------------------------
// GEMM (c = a * b) with optional accumulate / fused bias+ReLU epilogue over
// row-major B, viewed as its k rows at the row pitch `ld`. Each output
// element is one ascending-k FMA chain in one lane, then the epilogue.
// ---------------------------------------------------------------------------

struct RowMajorB {
  const float* data;
  size_t ld;
  size_t k;
};

struct Epilogue {
  const float* bias;  // nullable
  bool accumulate;
  bool relu;
};

// A-side views: the offset of a(r, kk), the tile's row r at reduction step
// kk, from the tile's first element. Row-major A is the forward GEMM's;
// transposed A is MatMulTransA's a^T read in place, a(r, kk) = a[kk*lda + r].
struct RowMajorA {
  static size_t RowStep(size_t lda) { return lda; }
  static size_t KStep(size_t) { return 1; }
};

struct TransposedA {
  static size_t RowStep(size_t) { return 1; }
  static size_t KStep(size_t lda) { return lda; }
};

/// R rows x NV full vectors of output at column j (kTail: one masked
/// vector), accumulated over all k rows of B. A's row r at reduction step
/// kk is a[r * A::RowStep(lda) + kk * A::KStep(lda)]; row r of C starts at
/// c + r * ldc. `resume` starts the chains from the partials parked in C
/// instead of zero; `finish` applies the epilogue, otherwise the raw
/// partials are stored back. Always inlined: as a call, the per-tile
/// overhead costs ~10% on short reductions.
template <class T, int R, int NV, bool kTail, class A = RowMajorA>
__attribute__((always_inline)) inline void GemmTile(
    const float* a, size_t lda, const RowMajorB& b, float* c, size_t ldc,
    size_t j, typename T::Mask mask, bool resume, bool finish, Epilogue e) {
  using V = typename T::Vec;
  constexpr size_t W = T::kWidth;
  const auto lanes = LanesFor<T, kTail>(mask);
  const size_t a_row = A::RowStep(lda), a_k = A::KStep(lda);
  V acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = resume ? lanes.Load(c + r * ldc + j + v * W) : T::Zero();
    }
  }
  const float* ak = a;
  const float* bk = b.data + j;
  // Unrolled so the per-step pointer bumps amortize over more FMAs.
#pragma GCC unroll 2
  for (size_t kk = 0; kk < b.k; ++kk, ak += a_k, bk += b.ld) {
    V bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = lanes.Load(bk + v * W);
    for (int r = 0; r < R; ++r) {
      const V av = T::Set1(ak[r * a_row]);
      for (int v = 0; v < NV; ++v) acc[r][v] = T::Fma(av, bv[v], acc[r][v]);
    }
  }
  // The masked tail adds its (maybe-zero) bias vector unconditionally;
  // full vectors add bias only when present.
  const V bias_tail = kTail && finish && e.bias != nullptr
                         ? lanes.Load(e.bias + j)
                         : T::Zero();
  // Fully unrolled, so the accumulators stay in registers.
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      float* cp = c + r * ldc + j + v * W;
      V x = acc[r][v];
      if (finish) {
        if (e.accumulate) x = T::Add(x, lanes.Load(cp));
        if (kTail) {
          x = T::Add(x, bias_tail);
        } else if (e.bias != nullptr) {
          x = T::Add(x, T::Load(e.bias + j + v * W));
        }
        if (e.relu) x = T::Max(x, T::Zero());
      }
      lanes.Store(cp, x);
    }
  }
}

/// One R-row block (output rows [i, i + R)) across all n output columns:
/// 2-vector tiles, then one vector, then the masked tail.
template <class T, int R>
inline void GemmRows(const Matrix& a, const RowMajorB& b, Matrix* c,
                     size_t i, Epilogue e) {
  constexpr size_t W = T::kWidth;
  const float* ai = a.data() + i * a.stride();
  float* ci = c->data() + i * c->stride();
  const size_t lda = a.stride(), ldc = c->stride(), n = c->cols();
  const typename T::Mask none{};
  size_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W) {
    GemmTile<T, R, 2, false>(ai, lda, b, ci, ldc, j, none, false, true, e);
  }
  if (j + W <= n) {
    GemmTile<T, R, 1, false>(ai, lda, b, ci, ldc, j, none, false, true, e);
    j += W;
  }
  if (j < n) {
    GemmTile<T, R, 1, true>(ai, lda, b, ci, ldc, j, T::TailMask(n - j), false,
                            true, e);
  }
}

/// The row remainder (1 .. kTileRows-1 rows) as ONE multi-row pass: each
/// pass re-streams all of B, so a per-row tail would cost ~rem full B
/// streams once B outgrows cache. Per-row FMA order matches the full
/// block, so results are identical either way.
template <class T, int R>
inline void GemmRowTail(size_t rem, const Matrix& a, const RowMajorB& b,
                        Matrix* c, size_t i, Epilogue e) {
  if constexpr (R > 1) {
    if (rem < R) {
      GemmRowTail<T, R - 1>(rem, a, b, c, i, e);
      return;
    }
  }
  GemmRows<T, R>(a, b, c, i, e);
}

/// A row count as a type, so a generic lambda can take it as a template
/// argument: decltype(rows)::kRows.
template <int N>
struct RowCount {
  static constexpr int kRows = N;
};

/// The remainder (1 .. R rows) as ONE f(i, RowCount<rem>) call.
template <int R, class F>
inline void RowBlockTail(size_t rem, size_t i, F& f) {
  if constexpr (R > 1) {
    if (rem < R) {
      RowBlockTail<R - 1>(rem, i, f);
      return;
    }
  }
  f(i, RowCount<R>{});
}

/// Visits rows [r0, r1) as f(i, RowCount<R>{}) per R-row block, then the
/// remainder (1 .. R-1 rows) as ONE multi-row call, for the reason
/// GemmRowTail gives.
template <int R, class F>
inline void ForEachRowBlock(size_t r0, size_t r1, F&& f) {
  size_t i = r0;
  for (; i + R <= r1; i += R) f(i, RowCount<R>{});
  if constexpr (R > 1) {
    if (i < r1) RowBlockTail<R - 1>(r1 - i, i, f);
  }
}

template <class T>
void GemmRange(const Matrix& a, const Matrix& b, Matrix* c, size_t r0,
               size_t r1, Epilogue e) {
  assert(b.rows() == a.cols());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  assert(r0 <= r1 && r1 <= a.rows());
  constexpr int R = T::kTileRows;
  const RowMajorB bv{b.data(), b.stride(), b.rows()};
  size_t i = r0;
  for (; i + R <= r1; i += R) GemmRows<T, R>(a, bv, c, i, e);
  if (i < r1) GemmRowTail<T, R - 1>(r1 - i, a, bv, c, i, e);
}

template <class T>
void MatMulRange(const Matrix& a, const Matrix& b, Matrix* c, size_t r0,
                 size_t r1, bool accumulate) {
  GemmRange<T>(a, b, c, r0, r1, Epilogue{nullptr, accumulate, false});
}

template <class T>
void MatMulBiasActRange(const Matrix& a, const Matrix& b, Matrix* c,
                        size_t r0, size_t r1, const float* bias, bool relu) {
  GemmRange<T>(a, b, c, r0, r1, Epilogue{bias, false, relu});
}

// ---------------------------------------------------------------------------
// One-row GEMM over the row's nonzero inputs (MatMulRowBiasAct in
// tensor/matrix.h): c[0, n) = act(sum over t of a[nz[t]] * b(nz[t], :) +
// bias). Each output element is the dense chain above with its zero terms
// left out: ascending k, FMA from +0, then the same epilogue, so for
// finite B the row is bit-identical to the dense kernel's.
//
// The nonzero rows go in groups of kSparseGroup. A group sweeps the whole
// output row one vector at a time: one load of C (the chains the previous
// group parked there, or +0 for the first), one FMA per B row, one store
// (the epilogue after the last group). Every B row a group reads streams
// front to back, and C round trips through L1 once per group instead of
// once per row. Parking a partial in C is an exact store and reload.
// An output row of at most one vector (w4's two classes) parks nothing:
// its one accumulator stays in a register across every nonzero row.
// ---------------------------------------------------------------------------

constexpr int kSparseGroup = 8;

/// Writes the positions of a[0, k)'s entries that are not ±0 to nz in
/// ascending order and returns their count. Each step stores a whole
/// vector of indices, so nz needs RowIndexScratchSize(k) entries.
template <class T>
size_t CompressNonzero(const float* a, size_t k, uint32_t* nz) {
  size_t nnz = 0;
  // Masked-off tail lanes load as +0 and are never kept.
  ForEachVector<T>(k, [&](size_t j, auto lanes) {
    nnz += T::CompressNonzero(lanes.Load(a + j), static_cast<uint32_t>(j),
                              nz + nnz);
  });
  return nnz;
}

/// The epilogue of the one-row vector at column j. It mirrors GemmTile's,
/// the masked tail's bias-or-zero add included.
template <class T, class L>
inline typename T::Vec SparseRowFinish(typename T::Vec x, L lanes, size_t j,
                                       Epilogue e) {
  if constexpr (L::kTail) {
    x = T::Add(x, e.bias != nullptr ? lanes.Load(e.bias + j) : T::Zero());
  } else if (e.bias != nullptr) {
    x = T::Add(x, T::Load(e.bias + j));
  }
  if (e.relu) x = T::Max(x, T::Zero());
  return x;
}

/// c[0, n) over the G B rows of the nonzero inputs nz[0, G). `resume`
/// continues the chains parked in C instead of starting at +0; `finish`
/// stores the epilogue instead of the raw partials.
template <class T, int G>
inline void SparseRowPass(const float* a, const uint32_t* nz, const Matrix& b,
                          float* c, bool resume, bool finish, Epilogue e) {
  using V = typename T::Vec;
  V av[G > 0 ? G : 1];
  const float* brow[G > 0 ? G : 1];
  for (int g = 0; g < G; ++g) {
    av[g] = T::Set1(a[nz[g]]);
    brow[g] = b.Row(nz[g]);
  }
  ForEachVector<T>(b.cols(), [&](size_t j, auto lanes) {
    V x = resume ? lanes.Load(c + j) : T::Zero();
    for (int g = 0; g < G; ++g) x = T::Fma(av[g], lanes.Load(brow[g] + j), x);
    if (finish) x = SparseRowFinish<T>(x, lanes, j, e);
    lanes.Store(c + j, x);
  });
}

/// SparseRowPass for a group of `g` (1 .. G) rows.
template <class T, int G>
inline void SparseRowGroup(size_t g, const float* a, const uint32_t* nz,
                           const Matrix& b, float* c, bool resume,
                           bool finish, Epilogue e) {
  if constexpr (G > 1) {
    if (g < G) {
      SparseRowGroup<T, G - 1>(g, a, nz, b, c, resume, finish, e);
      return;
    }
  }
  SparseRowPass<T, G>(a, nz, b, c, resume, finish, e);
}

template <class T>
void MatMulRowBiasAct(const float* a, uint32_t* nz, const Matrix& b,
                      float* c, const float* bias, bool relu) {
  const Epilogue e{bias, false, relu};
  const size_t nnz = CompressNonzero<T>(a, b.rows(), nz);
  if (b.cols() <= T::kWidth) {  // one vector: every chain in one register
    ForEachVector<T>(b.cols(), [&](size_t, auto lanes) {
      typename T::Vec x = T::Zero();
      for (size_t t = 0; t < nnz; ++t) {
        x = T::Fma(T::Set1(a[nz[t]]), lanes.Load(b.Row(nz[t])), x);
      }
      lanes.Store(c, SparseRowFinish<T>(x, lanes, 0, e));
    });
    return;
  }
  if (nnz == 0) {  // every chain stays +0: the epilogue alone
    SparseRowPass<T, 0>(a, nz, b, c, false, true, e);
    return;
  }
  for (size_t t = 0; t < nnz; t += kSparseGroup) {
    const size_t g = nnz - t < kSparseGroup ? nnz - t : kSparseGroup;
    SparseRowGroup<T, kSparseGroup>(g, a, nz + t, b, c, t > 0,
                                    t + g == nnz, e);
  }
}

// ---------------------------------------------------------------------------
// MatMulTransB (c = a * b^T): W-lane dot accumulators, four outputs per
// horizontal fold.
// ---------------------------------------------------------------------------

/// Lane partials of dot(x, y) over k: one FMA accumulator, masked tail.
template <class T>
inline typename T::Vec DotAccum(const float* x, const float* y, size_t k) {
  typename T::Vec acc = T::Zero();
  ForEachVector<T>(k, [&](size_t kk, auto lanes) {
    acc = T::Fma(lanes.Load(x + kk), lanes.Load(y + kk), acc);
  });
  return acc;
}

template <class T>
void MatMulTransBRange(const Matrix& a, const Matrix& b, Matrix* c,
                       size_t r0, size_t r1, bool accumulate) {
  const size_t k = a.cols(), n = b.rows();
  assert(b.cols() == k);
  assert(c->rows() == a.rows() && c->cols() == n);
  assert(r0 <= r1 && r1 <= a.rows());
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a.Row(i);
    float* crow = c->Row(i);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      float dot[4];
      T::ReduceAdd4(DotAccum<T>(arow, b.Row(j), k),
                    DotAccum<T>(arow, b.Row(j + 1), k),
                    DotAccum<T>(arow, b.Row(j + 2), k),
                    DotAccum<T>(arow, b.Row(j + 3), k), dot);
      for (size_t q = 0; q < 4; ++q) {
        crow[j + q] = accumulate ? crow[j + q] + dot[q] : dot[q];
      }
    }
    for (; j < n; ++j) {
      const float dot = T::ReduceAdd(DotAccum<T>(arow, b.Row(j), k));
      crow[j] = accumulate ? crow[j] + dot : dot;
    }
  }
}

// ---------------------------------------------------------------------------
// MatMulTransA (c = a^T * b): GEMM tiles over transposed A, resuming from C.
// ---------------------------------------------------------------------------

/// Column strip [j, j + NV vectors) of c rows [i0, i1) += a^T b, R-row
/// tiles. `a` points at a(rr0, 0) and b's view at b(rr0, 0), where rr0 is
/// the first reduction row.
template <class T, int R, int NV, bool kTail>
inline void TransAStrip(const float* a, size_t lda, const RowMajorB& b,
                        float* c, size_t ldc, size_t i0, size_t i1, size_t j,
                        typename T::Mask mask) {
  ForEachRowBlock<R>(i0, i1, [&](size_t i, auto rows) {
    GemmTile<T, decltype(rows)::kRows, NV, kTail, TransposedA>(
        a + i, lda, b, c + i * ldc, ldc, j, mask, /*resume=*/true,
        /*finish=*/false, Epilogue{});
  });
}

/// c rows [i0, i1) += a[r0:r1)^T b[r0:r1). Each element is one
/// ascending-rr FMA chain from C's starting value. Zero entries of A are
/// not skipped: fma(0, b, c) == c for finite b unless c is -0, which a
/// chain from +0 reaches only by underflow, so on finite data a skip would
/// change no bits.
template <class T>
void TransAPass(const Matrix& a, const Matrix& b, Matrix* c, size_t r0,
                size_t r1, size_t i0, size_t i1) {
  if (r0 == r1 || i0 == i1) return;
  constexpr size_t W = T::kWidth;
  const float* ar = a.Row(r0);
  float* cd = c->data();
  const size_t lda = a.stride(), ldc = c->stride(), n = c->cols();
  const RowMajorB bv{b.Row(r0), b.stride(), r1 - r0};
  const typename T::Mask none{};
  size_t j = 0;
  if constexpr (T::kWideTileRows > 0) {
    for (; j + 4 * W <= n; j += 4 * W) {
      TransAStrip<T, T::kWideTileRows, 4, false>(ar, lda, bv, cd, ldc, i0, i1,
                                                 j, none);
    }
  }
  for (; j + 2 * W <= n; j += 2 * W) {
    TransAStrip<T, T::kTileRows, 2, false>(ar, lda, bv, cd, ldc, i0, i1, j,
                                           none);
  }
  if (j + W <= n) {
    TransAStrip<T, T::kTileRows, 1, false>(ar, lda, bv, cd, ldc, i0, i1, j,
                                           none);
    j += W;
  }
  if (j < n) {
    TransAStrip<T, T::kTileRows, 1, true>(ar, lda, bv, cd, ldc, i0, i1, j,
                                          T::TailMask(n - j));
  }
}

template <class T>
void MatMulTransARange(const Matrix& a, const Matrix& b, Matrix* c,
                       size_t r_begin, size_t r_end) {
  assert(b.rows() == a.rows());
  assert(c->rows() == a.cols() && c->cols() == b.cols());
  assert(r_begin <= r_end && r_end <= a.rows());
  TransAPass<T>(a, b, c, r_begin, r_end, 0, a.cols());
}

// ---------------------------------------------------------------------------
// Row/vector kernels.
// ---------------------------------------------------------------------------

template <class T>
void AddRowVector(Matrix* m, const float* bias) {
  for (size_t i = 0; i < m->rows(); ++i) {
    float* row = m->Row(i);
    ForEachVector<T>(m->cols(), [&](size_t j, auto lanes) {
      lanes.Store(row + j, T::Add(lanes.Load(row + j), lanes.Load(bias + j)));
    });
  }
}

template <class T>
void ReluInPlace(Matrix* m) {
  for (size_t i = 0; i < m->rows(); ++i) {
    float* row = m->Row(i);
    ForEachVector<T>(m->cols(), [&](size_t j, auto lanes) {
      lanes.Store(row + j, T::Max(lanes.Load(row + j), T::Zero()));
    });
  }
}

template <class T>
void Axpy(float alpha, const float* x, float* y, size_t n) {
  const typename T::Vec a = T::Set1(alpha);
  ForEachVector<T>(n, [&](size_t i, auto lanes) {
    lanes.Store(y + i, T::Fma(a, lanes.Load(x + i), lanes.Load(y + i)));
  });
}

template <class T>
void ColumnSumsRange(const Matrix& m, float* out, size_t row_begin,
                     size_t row_end, bool accumulate) {
  const size_t cols = m.cols();
  if (!accumulate) std::memset(out, 0, cols * sizeof(float));
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* row = m.Row(i);
    ForEachVector<T>(cols, [&](size_t j, auto lanes) {
      lanes.Store(out + j, T::Add(lanes.Load(out + j), lanes.Load(row + j)));
    });
  }
}

template <class T>
void AdamUpdate(float* w, const float* g, float* m, float* v, size_t n,
                float step, float beta1, float beta2, float eps) {
  using V = typename T::Vec;
  const V b1 = T::Set1(beta1), omb1 = T::Set1(1.0f - beta1);
  const V b2 = T::Set1(beta2), omb2 = T::Set1(1.0f - beta2);
  const V step_v = T::Set1(step), eps_v = T::Set1(eps);
  // Masked-off tail lanes compute 0 / (sqrt(0) + eps) = 0 — no traps — and
  // their stores never land. Moments below FLT_MIN are stored as +0: a
  // zero-gradient m would otherwise decay into a subnormal fixed point that
  // costs a microcode assist on every later step.
  ForEachVector<T>(n, [&](size_t i, auto lanes) {
    const V gv = lanes.Load(g + i);
    const V mv =
        T::FlushTiny(T::Fma(b1, lanes.Load(m + i), T::Mul(omb1, gv)));
    const V vv = T::FlushTiny(
        T::Fma(b2, lanes.Load(v + i), T::Mul(omb2, T::Mul(gv, gv))));
    lanes.Store(m + i, mv);
    lanes.Store(v + i, vv);
    const V denom = T::Add(T::Sqrt(vv), eps_v);
    const V upd = T::Div(T::Mul(step_v, mv), denom);
    lanes.Store(w + i, T::Sub(lanes.Load(w + i), upd));
  });
}

// ---------------------------------------------------------------------------
// W-lane sincos: round-to-nearest quadrant reduction (two-term Cody-Waite,
// exact to float rounding for the |x| <~ 100 range the log-compressed
// degree/time encoders produce) + the cephes minimax polynomials on
// [-pi/4, pi/4] (~1e-7 absolute error). T::SincosQuadrant applies the
// quadrant fix-up:
//   n = round(|x| * 2/pi) mod 4;  r = |x| - n * pi/2
//   n=0: (sin r,  cos r)   n=1: (cos r, -sin r)
//   n=2: (-sin r, -cos r)  n=3: (-cos r,  sin r)
// i.e. swap when n is odd, negate sin when n in {2,3}, negate cos when
// n in {1,2}; then sin takes the sign of x (cos is even).
// ---------------------------------------------------------------------------

template <class T>
inline void Sincos(typename T::Vec x, typename T::Vec* s_out,
                   typename T::Vec* c_out) {
  using V = typename T::Vec;
  const V ax = T::Abs(x);
  const V q = T::RoundNearest(T::Mul(ax, T::Set1(0.63661977236758134f)));
  V r = T::Fnma(q, T::Set1(1.57079601287841796875f), ax);
  r = T::Fnma(q, T::Set1(3.1391647326017846e-7f), r);

  const V z = T::Mul(r, r);
  // sin(r) = r + r*z*((S0*z + S1)*z + S2)
  V sp = T::Set1(-1.9515295891e-4f);
  sp = T::Fma(sp, z, T::Set1(8.3321608736e-3f));
  sp = T::Fma(sp, z, T::Set1(-1.6666654611e-1f));
  sp = T::Fma(T::Mul(sp, z), r, r);
  // cos(r) = 1 - z/2 + z*z*((C0*z + C1)*z + C2)
  V cp = T::Set1(2.443315711809948e-5f);
  cp = T::Fma(cp, z, T::Set1(-1.388731625493765e-3f));
  cp = T::Fma(cp, z, T::Set1(4.166664568298827e-2f));
  cp = T::Mul(cp, T::Mul(z, z));
  cp = T::Fnma(z, T::Set1(0.5f), T::Add(cp, T::Set1(1.0f)));

  T::SincosQuadrant(sp, cp, q, x, s_out, c_out);
}

template <class T>
void SincosEncode(float x, float freq_decay, float* out, size_t dim) {
  using V = typename T::Vec;
  constexpr size_t W = T::kWidth;
  const size_t pairs = dim / 2;
  // The frequency ladder replicates the scalar chained multiply exactly
  // (same float rounding per rung); only sin/cos themselves differ, by the
  // polynomial's ~1e-7.
  alignas(64) float angles[W];
  float freq = 1.0f;
  size_t p = 0;
  while (p < pairs) {
    const size_t chunk = pairs - p < W ? pairs - p : W;
    for (size_t lane = 0; lane < chunk; ++lane) {
      angles[lane] = x * freq;
      freq *= freq_decay;
    }
    for (size_t lane = chunk; lane < W; ++lane) angles[lane] = 0.0f;
    V s, c, lo, hi;
    Sincos<T>(T::Load(angles), &s, &c);
    T::Interleave(s, c, &lo, &hi);
    const size_t n_out = 2 * chunk;
    if (n_out >= W) {
      T::Store(out + 2 * p, lo);
      if (n_out > W) T::MaskStore(out + 2 * p + W, T::TailMask(n_out - W), hi);
    } else {
      T::MaskStore(out + 2 * p, T::TailMask(n_out), lo);
    }
    p += chunk;
  }
  if (dim % 2 == 1) out[dim - 1] = x * 0.1f;
}

/// The backend's kernel table over traits T.
template <class T>
constexpr KernelTable MakeKernelTable(const char* name) {
  return KernelTable{
      name,
      MatMulRange<T>,
      MatMulBiasActRange<T>,
      MatMulTransBRange<T>,
      MatMulTransARange<T>,
      AddRowVector<T>,
      ReluInPlace<T>,
      Axpy<T>,
      ColumnSumsRange<T>,
      AdamUpdate<T>,
      SincosEncode<T>,
      MatMulRowBiasAct<T>,
  };
}

}  // namespace
}  // namespace splash

#endif  // SPLASH_TENSOR_KERNELS_SIMD_BODY_H_
