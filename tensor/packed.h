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
//
// PackedMatrix16 is the bf16 storage variant for the serve read replica
// (SPLASH_REPLICA_PRECISION=bf16): identical geometry, each element stored
// as the round-to-nearest-even upper half of its fp32 bits. Kernels widen
// to fp32 on load and accumulate in fp32 throughout — only the storage
// (and with it the weight-streaming bandwidth) is halved. bf16 is
// tolerance-equivalent, never bit-equal: fp32 stays the default and the
// determinism reference, and task-metric parity is gated end-to-end
// (packed_gemm_test AUC parity), not just per-kernel ulp checks.

#ifndef SPLASH_TENSOR_PACKED_H_
#define SPLASH_TENSOR_PACKED_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/matrix.h"

namespace splash {

/// fp32 -> bf16 with round-to-nearest-even on the dropped 16 mantissa bits.
/// NaN payloads are truncated with a forced quiet bit instead of letting
/// the rounding carry overflow the exponent.
inline uint16_t Bf16FromFloat(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  if ((bits & 0x7FFFFFFFu) > 0x7F800000u) {
    return static_cast<uint16_t>((bits >> 16) | 0x0040u);
  }
  bits += 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<uint16_t>(bits >> 16);
}

/// bf16 -> fp32 is exact: the stored half IS the upper half of the bits.
inline float Bf16ToFloat(uint16_t h) {
  const uint32_t bits = static_cast<uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Reduction rows per k-block for a k x n packed operand: the largest
/// multiple of 16 whose packed block (rows x panels x 16 floats) fits half
/// the detected L2, floored at 32 rows and capped at k. Declared here,
/// computed in tensor/packed.cc from the cache topology (tensor/simd.h).
size_t PackedKBlockRows(size_t k, size_t n);

/// Row-major bf16 matrix: the storage type of the bf16 read replica and
/// the round-trip unit of packed_gemm_test. Grow-only like Matrix.
class Matrix16 {
 public:
  Matrix16() = default;

  /// Resizes to m's shape and converts every element (round-to-nearest-even).
  void FromFloat(const Matrix& m) {
    rows_ = m.rows();
    cols_ = m.cols();
    if (data_.size() < rows_ * cols_) data_.Resize(rows_ * cols_);
    uint16_t* dst = data_.data();
    for (size_t r = 0; r < rows_; ++r) {
      const float* src = m.Row(r);
      for (size_t c = 0; c < cols_; ++c) *dst++ = Bf16FromFloat(src[c]);
    }
  }

  /// Widens back to fp32 (exact); `out` is resized to this shape.
  void ToFloat(Matrix* out) const {
    out->Resize(rows_, cols_);
    const uint16_t* src = data_.data();
    for (size_t r = 0; r < rows_; ++r) {
      float* dst = out->Row(r);
      for (size_t c = 0; c < cols_; ++c) dst[c] = Bf16ToFloat(*src++);
    }
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  uint16_t operator()(size_t r, size_t c) const {
    return data_.data()[r * cols_ + c];
  }
  float Value(size_t r, size_t c) const { return Bf16ToFloat((*this)(r, c)); }
  /// Payload bytes actually resident for this shape.
  size_t bytes() const { return rows_ * cols_ * sizeof(uint16_t); }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  AlignedBufferT<uint16_t> data_;
};

/// B re-tiled into contiguous (k-block x 16-col panel) panels, fp32.
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
  /// Resident payload bytes for this shape (includes panel zero-padding).
  size_t bytes() const { return k_ * panels() * kPanelCols * sizeof(float); }

 private:
  size_t k_ = 0;
  size_t n_ = 0;
  size_t kb_ = 0;
  AlignedBufferT<float> data_;
};

/// The bf16 storage variant: identical geometry to PackedMatrix, elements
/// converted with round-to-nearest-even at pack time. Kernels widen each
/// panel load to fp32 and accumulate in fp32.
class PackedMatrix16 {
 public:
  static constexpr size_t kPanelCols = 16;

  PackedMatrix16() = default;

  void PackFrom(const Matrix& b);

  size_t k() const { return k_; }
  size_t n() const { return n_; }
  size_t panels() const { return (n_ + kPanelCols - 1) / kPanelCols; }
  size_t block_rows() const { return kb_; }
  size_t num_blocks() const {
    return k_ == 0 ? 0 : (k_ + kb_ - 1) / kb_;
  }
  size_t BlockBegin(size_t pb) const { return pb * kb_; }
  size_t BlockRows(size_t pb) const {
    const size_t begin = pb * kb_;
    return k_ - begin < kb_ ? k_ - begin : kb_;
  }
  /// Panel `jp` of block `pb`: BlockRows(pb) x 16 contiguous bf16 lanes,
  /// 32-byte aligned (block and panel strides are multiples of 16 lanes).
  const uint16_t* Panel(size_t pb, size_t jp) const {
    return data_.data() + pb * kb_ * panels() * kPanelCols +
           jp * BlockRows(pb) * kPanelCols;
  }
  bool empty() const { return k_ == 0 || n_ == 0; }
  size_t bytes() const {
    return k_ * panels() * kPanelCols * sizeof(uint16_t);
  }

 private:
  size_t k_ = 0;
  size_t n_ = 0;
  size_t kb_ = 0;
  AlignedBufferT<uint16_t> data_;
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

/// Fused epilogue against bf16 packed B (widening loads, fp32 accumulate).
void MatMulPacked16BiasActRange(const Matrix& a, const PackedMatrix16& b,
                                Matrix* c, size_t row_begin, size_t row_end,
                                const float* bias, bool relu);

}  // namespace splash

#endif  // SPLASH_TENSOR_PACKED_H_
