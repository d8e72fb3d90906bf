// Copyright 2026 The SPLASH Reproduction Authors.
//
// Flat row-major float matrix plus the dense kernel entry points every model
// in the repo runs on. Design rules (see DESIGN.md §2/§6):
//   - one contiguous 64-byte-aligned allocation, row-major; an optional
//     padded leading dimension (stride() >= cols()) keeps every row start
//     64-byte aligned so SIMD backends get aligned loads and whole-vector
//     steady loops (ResizePadded opts in; plain Resize stays contiguous);
//   - Resize()/ResizePadded() only ever grow the backing store, so scratch
//     matrices reused across batches stop allocating after warm-up;
//   - the kernels below are thin dispatchers into the runtime-selected
//     backend (tensor/simd.h): the scalar backend is the bit-exact
//     determinism reference, the AVX2/FMA backend is tolerance-equivalent.
//
// Every accessor is stride-aware: Row(r) is data() + r * stride(), and
// nothing outside this header may assume stride() == cols() unless it
// checked IsContiguous() (the flat data()/size() iteration idiom).

#ifndef SPLASH_TENSOR_MATRIX_H_
#define SPLASH_TENSOR_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/rng.h"

namespace splash {

/// Grow-only float buffer whose payload is 64-byte aligned. Allocation goes
/// through plain ::operator new[] (over-allocated, pointer aligned by hand)
/// so the counting-allocator gate in allocation_steady_state_test still
/// sees every allocation — std::aligned_alloc or aligned operator new would
/// bypass the shims the gate overrides.
class AlignedBuffer {
 public:
  static constexpr size_t kAlignment = 64;
  /// Floats per 64 B line: capacity is always a whole number of lines.
  static constexpr size_t kLineFloats = kAlignment / sizeof(float);

  AlignedBuffer() = default;
  ~AlignedBuffer() { delete[] raw_; }

  AlignedBuffer(const AlignedBuffer& other) { CopyFrom(other); }
  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      if (cap_ < other.size_) {
        delete[] raw_;
        raw_ = nullptr;
        data_ = nullptr;
        cap_ = 0;
        size_ = 0;
        CopyFrom(other);
      } else {
        size_ = other.size_;
        if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(float));
      }
    }
    return *this;
  }
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : raw_(other.raw_), data_(other.data_), size_(other.size_),
        cap_(other.cap_) {
    other.raw_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
    other.cap_ = 0;
  }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      delete[] raw_;
      raw_ = other.raw_;
      data_ = other.data_;
      size_ = other.size_;
      cap_ = other.cap_;
      other.raw_ = nullptr;
      other.data_ = nullptr;
      other.size_ = 0;
      other.cap_ = 0;
    }
    return *this;
  }

  /// Grows to at least `n` elements (grow-only), preserving the existing
  /// contents and zeroing the newly exposed cells — the same contract
  /// std::vector<float>::resize gave the score accumulators. The first
  /// allocation is `n` rounded up to whole 64 B lines, so a tail vector
  /// load stays in bounds; later growth doubles.
  void Resize(size_t n) {
    if (n > cap_) {
      size_t new_cap = cap_;
      if (new_cap == 0) {
        new_cap = (n + kLineFloats - 1) / kLineFloats * kLineFloats;
      }
      while (new_cap < n) new_cap *= 2;
      char* raw = new char[new_cap * sizeof(float) + kAlignment];
      const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
      float* aligned = reinterpret_cast<float*>(
          (base + kAlignment - 1) / kAlignment * kAlignment);
      if (size_ > 0) std::memcpy(aligned, data_, size_ * sizeof(float));
      delete[] raw_;
      raw_ = raw;
      data_ = aligned;
      cap_ = new_cap;
    }
    if (n > size_) {
      std::memset(data_ + size_, 0, (n - size_) * sizeof(float));
    }
    size_ = n;
  }

  float* data() { return data_; }
  const float* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  void CopyFrom(const AlignedBuffer& other) {
    Resize(other.size_);
    if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(float));
  }

  char* raw_ = nullptr;  // owning over-allocated block
  float* data_ = nullptr;  // 64B-aligned payload inside raw_
  size_t size_ = 0;
  size_t cap_ = 0;
};

class Matrix {
 public:
  /// Padded rows round the leading dimension up to this many floats
  /// (16 floats = 64 bytes = one cache line / one ZMM / two YMM).
  static constexpr size_t kPadFloats = 16;

  Matrix() = default;
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), stride_(cols) {
    data_.Resize(rows * cols);
  }

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }

  static Matrix Ones(size_t rows, size_t cols) {
    Matrix m(rows, cols);
    m.Fill(1.0f);
    return m;
  }

  static Matrix Gaussian(size_t rows, size_t cols, Rng* rng,
                         float stddev = 1.0f) {
    Matrix m(rows, cols);
    rng->FillGaussian(m.data(), rows * cols, stddev);
    return m;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }

  /// Leading dimension in floats: Row(r) == data() + r * stride(). Equal to
  /// cols() for contiguous matrices; >= cols() after ResizePadded.
  size_t stride() const { return stride_; }
  bool IsContiguous() const { return stride_ == cols_ || rows_ <= 1; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float* Row(size_t r) {
    assert(r < rows_);
    return data_.data() + r * stride_;
  }
  const float* Row(size_t r) const {
    assert(r < rows_);
    return data_.data() + r * stride_;
  }

  float& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_.data()[r * stride_ + c];
  }
  float operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_.data()[r * stride_ + c];
  }

  /// Reshapes to rows x cols with a contiguous layout (stride == cols).
  /// The backing buffer only grows (amortized) and growth preserves
  /// existing contents, so with an unchanged column count previously
  /// written rows stay intact — the trainers' score accumulators rely on
  /// that. New cells are zeroed on first growth; hot-path callers overwrite
  /// every cell or call SetZero().
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    stride_ = cols;
    if (data_.size() < rows * cols) data_.Resize(rows * cols);
  }

  /// Reshapes to rows x cols with the leading dimension rounded up to a
  /// multiple of kPadFloats, so every row start is 64-byte aligned. The
  /// padding lanes ([cols, stride) of each row) are dead storage: kernels
  /// never read them and may leave garbage there — nothing outside a row's
  /// [0, cols) range is meaningful. Same grow-only guarantee as Resize.
  void ResizePadded(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    stride_ = (cols + kPadFloats - 1) / kPadFloats * kPadFloats;
    if (data_.size() < rows * stride_) data_.Resize(rows * stride_);
  }

  void SetZero() { Fill(0.0f); }

  void Fill(float v) {
    // Fills the full padded extent: cheaper than per-row loops and keeps
    // SetZero usable as "whole allocation is zero" for memset-style init.
    float* p = data_.data();
    const size_t n = rows_ * stride_;
    for (size_t i = 0; i < n; ++i) p[i] = v;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
  AlignedBuffer data_;
};

// ---------------------------------------------------------------------------
// Dense kernels. All of them require the output to be pre-sized by the
// caller; none of them allocate. Every kernel is stride-aware (operands may
// be padded) and dispatches to the runtime-selected backend (tensor/simd.h;
// SPLASH_KERNEL={scalar,avx2,auto}).
//
// Every kernel runs on the calling thread. The *Range variants restrict a
// kernel to a slice of rows, so a caller can run one layer over part of a
// batch (core/slim.cc's one-row reads and neighbor-slot trim).
// ---------------------------------------------------------------------------

/// c = a * b (+ c if accumulate). a: MxK, b: KxN, c: MxN.
void MatMul(const Matrix& a, const Matrix& b, Matrix* c,
            bool accumulate = false);

/// MatMul restricted to output rows [row_begin, row_end): only those rows
/// of `c` are written (and zeroed first unless accumulate).
void MatMulRange(const Matrix& a, const Matrix& b, Matrix* c,
                 size_t row_begin, size_t row_end, bool accumulate = false);

/// Fused GEMM epilogue: c rows [row_begin, row_end) = act(a * b + bias),
/// where bias (b.cols() entries, may be null) is added into the tile store
/// and act is ReLU when `relu` — one pass instead of GEMM + AddRowVector +
/// ReluInPlace. The scalar backend computes the identical arithmetic to
/// that three-pass sequence, so it stays the bit-exact reference.
void MatMulBiasActRange(const Matrix& a, const Matrix& b, Matrix* c,
                        size_t row_begin, size_t row_end, const float* bias,
                        bool relu);

/// Index scratch MatMulRowBiasAct needs for a k-wide input row: the SIMD
/// backends store whole vectors of indices, up to 16 past the last kept.
constexpr size_t RowIndexScratchSize(size_t k) { return k + 16; }

/// One-row fused layer: c row `row` = act(a row `row` * b + bias), reduced
/// over only the row's nonzero inputs. The row's nonzero positions are
/// compressed into `nz` (caller-owned scratch, grown to
/// RowIndexScratchSize(a.cols()) entries and never shrunk, so a warmed
/// caller allocates nothing), then the backend's column tiles run over
/// those k alone. Bit contract: every
/// output is the dense fused kernel's chain (ascending k, FMA from +0, then
/// + bias, then max(x, 0)) minus its zero terms. A zero input adds an exact
/// ±0 to a finite product, which changes no partial sum except -0 (a chain
/// from +0 reaches -0 only by underflow), so for finite b the row is
/// bit-identical to MatMulBiasActRange's on the same backend. Infinite or
/// NaN weights break that: 0 * inf is NaN in the dense chain and skipped
/// here. Reads only the rows of b a nonzero input reaches, which is the
/// point: a ReLU or masked input row leaves most of a wide layer unread.
void MatMulRowBiasAct(const Matrix& a, size_t row, const Matrix& b,
                      Matrix* c, const float* bias, bool relu,
                      std::vector<uint32_t>* nz);

/// c = a * b^T (+ c if accumulate). a: MxK, b: NxK, c: MxN.
void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* c,
                  bool accumulate = false);

/// MatMulTransB restricted to output rows [row_begin, row_end).
void MatMulTransBRange(const Matrix& a, const Matrix& b, Matrix* c,
                       size_t row_begin, size_t row_end,
                       bool accumulate = false);

/// c = a^T * b (+ c if accumulate). a: RxM, b: RxN, c: MxN.
void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* c,
                  bool accumulate = false);

/// MatMulTransA restricted to *reduction* rows [r_begin, r_end) of a/b:
/// c += a[r_begin:r_end)^T * b[r_begin:r_end). ALWAYS accumulates and
/// never zeroes any part of `c` — a range call that zeroed the whole
/// output would be correct only for full-range callers, so the contract
/// is: callers pre-zero (or reuse) `c` themselves. SLIM's backward pass
/// pre-zeroes each gradient and folds the whole batch in one call.
void MatMulTransARange(const Matrix& a, const Matrix& b, Matrix* c,
                       size_t r_begin, size_t r_end);

/// m[r, :] += bias for every row r. bias has m->cols() entries.
void AddRowVector(Matrix* m, const float* bias);

/// In-place ReLU.
void ReluInPlace(Matrix* m);

/// y[i] += alpha * x[i] for i in [0, n).
void Axpy(float alpha, const float* x, float* y, size_t n);

/// out[j] = sum_r m(r, j): column sums, out has m.cols() entries.
void ColumnSums(const Matrix& m, float* out);

/// Column sums over rows [row_begin, row_end) only; adds into `out` when
/// accumulate, overwrites otherwise.
void ColumnSumsRange(const Matrix& m, float* out, size_t row_begin,
                     size_t row_end, bool accumulate = false);

/// Sinusoidal pair encoding of `x` at geometrically spaced frequencies
/// (see KernelTable::sincos_encode in tensor/simd.h): the degree and
/// time-delta feature encoders run on this.
void SincosEncode(float x, float freq_decay, float* out, size_t dim);

/// One fused Adam update over a flat parameter block:
///   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g^2;
///   w -= step * m / (sqrt(v) + eps)
/// `step` is the bias-corrected learning rate the caller precomputed. m and
/// v are stored as +0 where |x| < FLT_MIN (NaN passes through), and the
/// update reads the stored values: a moment whose gradient stays zero
/// reaches 0 instead of parking on a subnormal that every later step pays
/// a microcode assist for. Normal values keep the formula's bits.
void AdamUpdate(float* w, const float* g, float* m, float* v, size_t n,
                float step, float beta1, float beta2, float eps);

/// Solves (x^T x + lambda I) w = x^T y for w (ridge regression) via
/// Cholesky. x: NxD, y: NxC, w resized to DxC. Returns false if the normal
/// matrix is not positive definite even after boosting the diagonal.
bool SolveRidge(const Matrix& x, const Matrix& y, float lambda, Matrix* w);

}  // namespace splash

#endif  // SPLASH_TENSOR_MATRIX_H_
