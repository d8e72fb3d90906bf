// Copyright 2026 The SPLASH Reproduction Authors.
//
// Cache-aware packed-B GEMM storage (DESIGN.md §6). The unpacked kernels
// stride B by its full row pitch (4KB on a 1024-wide serving layer), which
// leaves the batch-1 fused forward TLB/prefetch-bound once B outgrows L2.
// PackedMatrix re-tiles B once into contiguous (k-block x n-panel) panels:
//
//   panel     = 16 output columns (one cache line / one ZMM / two YMM);
//               the last panel is zero-padded to 16 lanes
//   k-block   = a run of reduction rows sized from the detected L2
//               (PackedKBlockRows) so one block of B stays cache-resident
//               while every row of A streams against it
//   layout    = for each k-block: for each panel: block_rows x 16 floats,
//               contiguous — the GEMM inner loop advances B by exactly one
//               cache line per reduction step, no row-pitch strides
//
// Pack-once / reuse-many: the SLIM weight matrices pack once per weights
// version — at construction, checkpoint-load, and after each Adam step
// (core/slim.cc). Snapshot publish only verifies the packs are current, so
// the const query path never packs and an unchanged replica never repacks.
//
// Per-element FMA order is untouched by packing: every packed kernel
// accumulates one output element over ascending reduction index exactly
// like its unpacked sibling (zero-padded lanes contribute fma(a, 0, acc)
// == acc), so packed results are BIT-IDENTICAL to unpacked results within
// one backend, and the scalar backend remains the determinism reference.
// The SIMD backends walk a packed operand with the same column steps as a
// row-major one (tensor/kernels_simd_body.h): one 2-vector step is one
// panel on avx2 and two panels on avx512, then one vector, then a tail
// whose B loads may run full-width into the zero padding.

#ifndef SPLASH_TENSOR_PACKED_H_
#define SPLASH_TENSOR_PACKED_H_

#include <cstddef>

#include "tensor/matrix.h"

namespace splash {

/// Reduction rows per k-block for a k x n packed operand: the largest
/// multiple of 16 whose packed block (rows x panels x 16 floats) fits half
/// the detected L2, floored at 32 rows and capped at k. Declared here,
/// computed in tensor/packed.cc from the cache topology (tensor/simd.h).
size_t PackedKBlockRows(size_t k, size_t n);

/// B re-tiled into contiguous (k-block x 16-col panel) panels.
/// Grow-only: repacking the same (or a smaller) shape never allocates, so
/// the per-Adam-step repack is allocation-free at steady state.
class PackedMatrix {
 public:
  /// Panel width in output columns: one cache line of floats.
  static constexpr size_t kPanelCols = 16;

  PackedMatrix() = default;

  /// Re-tiles `b` (k x n, stride-aware). Zero-pads the last panel's dead
  /// lanes so kernels can run full-width loads against it.
  void PackFrom(const Matrix& b);

  size_t k() const { return k_; }
  size_t n() const { return n_; }
  size_t panels() const { return (n_ + kPanelCols - 1) / kPanelCols; }
  /// Reduction rows per block (PackedKBlockRows at pack time).
  size_t block_rows() const { return kb_; }
  size_t num_blocks() const {
    return k_ == 0 ? 0 : (k_ + kb_ - 1) / kb_;
  }
  /// First reduction row of block `pb`.
  size_t BlockBegin(size_t pb) const { return pb * kb_; }
  /// Rows in block `pb` (only the last block may be short).
  size_t BlockRows(size_t pb) const {
    const size_t begin = pb * kb_;
    return k_ - begin < kb_ ? k_ - begin : kb_;
  }
  /// Panel `jp` of block `pb`: BlockRows(pb) x 16 contiguous floats,
  /// 64-byte aligned; row kk of the block sits at offset kk * 16.
  const float* Panel(size_t pb, size_t jp) const {
    return data_.data() + pb * kb_ * panels() * kPanelCols +
           jp * BlockRows(pb) * kPanelCols;
  }
  bool empty() const { return k_ == 0 || n_ == 0; }

 private:
  size_t k_ = 0;
  size_t n_ = 0;
  size_t kb_ = 0;
  AlignedBuffer data_;
};

// ---------------------------------------------------------------------------
// Packed dispatch entry points (implemented in tensor/matrix.cc over the
// runtime-selected backend, tensor/simd.h). Same contracts as the unpacked
// kernels in tensor/matrix.h: outputs pre-sized, nothing allocates, results
// bit-identical to the unpacked sibling on the same backend.
// ---------------------------------------------------------------------------

/// c rows [r0, r1) = a * B (+ c if accumulate). a: M x k, c: M x n.
void MatMulPackedRange(const Matrix& a, const PackedMatrix& b, Matrix* c,
                       size_t row_begin, size_t row_end,
                       bool accumulate = false);

/// Row-parallel wrapper over MatMulPackedRange (same gate as MatMul).
void MatMulPacked(const Matrix& a, const PackedMatrix& b, Matrix* c,
                  bool accumulate = false);

/// Fused epilogue against packed B: c rows [r0, r1) = act(a * B + bias).
void MatMulPackedBiasActRange(const Matrix& a, const PackedMatrix& b,
                              Matrix* c, size_t row_begin, size_t row_end,
                              const float* bias, bool relu);

}  // namespace splash

#endif  // SPLASH_TENSOR_PACKED_H_
