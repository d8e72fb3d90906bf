// Copyright 2026 The SPLASH Reproduction Authors.
//
// Byte-level serialization substrate for the durability layer (serve/wal,
// serve/checkpoint, and the Serialize/Deserialize hooks on the streaming
// state holders). Design constraints:
//
//   - Bit-exact round trips. Floats and doubles are copied as raw IEEE-754
//     bytes, never formatted, so checkpoint-restore reproduces model state
//     down to the last mantissa bit — the property the recovery oracle
//     (tests/serve_recovery_test) pins.
//   - Explicit widths, little-endian layout. Every field is written through
//     a fixed-width method; there is no struct memcpy, so padding and ABI
//     never leak into the format.
//   - Readers never trust the stream. ByteReader is bounds-checked with a
//     sticky ok() flag; a truncated or hostile buffer yields zeros and
//     ok() == false instead of out-of-bounds reads.
//
// Also declares the CRC32C (Castagnoli) that frames WAL records, WAL
// segment headers and checkpoint payloads (core/serialize.cc). Crc32c runs
// the SSE4.2 crc32 instruction, 8 bytes per step, when cpuid reports it,
// chosen once per process; elsewhere it runs Crc32cPortable, the
// byte-at-a-time table loop. Both compute the same polynomial, so every
// framed byte is identical whichever body wrote or reads it.

#ifndef SPLASH_CORE_SERIALIZE_H_
#define SPLASH_CORE_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/matrix.h"

namespace splash {

/// CRC32C (Castagnoli, poly 0x1EDC6F41 reflected = 0x82F63B78). `seed` is
/// the running CRC for incremental use; pass 0 to start. Hardware body when
/// the CPU has SSE4.2, else Crc32cPortable; the values are identical.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// The table-driven CRC32C: the fallback body of Crc32c and the reference
/// the tests hold it to.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

/// Append-only byte sink over a caller-visible vector. Grow-only via the
/// vector; reusable across records by clearing the buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void Clear() { buf_.clear(); }
  /// Frees the capacity past the bytes written, so a writer kept for
  /// records of a steady size holds one record's bytes, not the up to
  /// twice that its growth while writing left.
  void ShrinkToFit() { buf_.shrink_to_fit(); }
  const std::vector<uint8_t>& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }
  /// For framing writers that reserve a header in-line and patch it after
  /// the payload is encoded (serve/wal).
  uint8_t* mutable_data() { return buf_.data(); }

  void Bytes(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  /// Appends `n` bytes for the caller to fill in place and returns where
  /// they start (valid until the next write). Lets a caller encode a large
  /// array straight into the buffer, with no per-element call.
  uint8_t* Span(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { WriteLE(v); }
  void U64(uint64_t v) { WriteLE(v); }
  void I32(int32_t v) { WriteLE(static_cast<uint32_t>(v)); }
  void F32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteLE(bits);
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteLE(bits);
  }

  // Length-prefixed arrays (count as u64, then raw element bytes; numeric
  // element layout matches the scalar methods on little-endian hosts, which
  // is the only layout the format defines).
  void U8Vec(const std::vector<uint8_t>& v) {
    U64(v.size());
    Bytes(v.data(), v.size());
  }
  void U32Vec(const std::vector<uint32_t>& v) {
    U64(v.size());
    Bytes(v.data(), v.size() * sizeof(uint32_t));
  }
  void F64Vec(const std::vector<double>& v) {
    U64(v.size());
    Bytes(v.data(), v.size() * sizeof(double));
  }

 private:
  template <typename T>
  void WriteLE(T v) {
    uint8_t b[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      b[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Bytes(b, sizeof(T));
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over a borrowed byte span. Any overrun sets the
/// sticky ok() flag false and every subsequent read yields zero — callers
/// check ok() once at the end (and Deserialize hooks additionally validate
/// shapes/config as they go).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : p_(data), n_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& v)
      : p_(v.data()), n_(v.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return n_ - pos_; }
  bool AtEnd() const { return pos_ == n_; }

  bool Bytes(void* out, size_t n) {
    if (!ok_ || n > n_ - pos_) {
      ok_ = false;
      if (n > 0) std::memset(out, 0, n);
      return false;
    }
    // n == 0 skips the copy: `out` may be a null data() from an empty
    // vector, and memcpy's pointer args are declared nonnull (UBSan).
    if (n > 0) std::memcpy(out, p_ + pos_, n);
    pos_ += n;
    return true;
  }

  /// The next `n` bytes in place, skipped over; nullptr (and ok() false)
  /// when fewer remain. Lets a caller decode a large array without copying
  /// it out first.
  const uint8_t* Span(size_t n) {
    if (!ok_ || n > n_ - pos_) {
      ok_ = false;
      return nullptr;
    }
    const uint8_t* p = p_ + pos_;
    pos_ += n;
    return p;
  }

  /// A length-prefixed array (the layout of ByteWriter's *Vec methods) in
  /// place: its element count into *count and its bytes, skipped over;
  /// nullptr (and ok() false) when the count overruns what remains.
  const uint8_t* VecSpan(size_t elem_size, size_t* count) {
    const uint64_t n = U64();
    if (!ok_ || n > remaining() / elem_size) {
      ok_ = false;
      *count = 0;
      return nullptr;
    }
    *count = static_cast<size_t>(n);
    return Span(*count * elem_size);
  }

  uint8_t U8() {
    uint8_t v = 0;
    Bytes(&v, 1);
    return v;
  }
  uint32_t U32() { return ReadLE<uint32_t>(); }
  uint64_t U64() { return ReadLE<uint64_t>(); }
  int32_t I32() { return static_cast<int32_t>(ReadLE<uint32_t>()); }
  float F32() {
    const uint32_t bits = ReadLE<uint32_t>();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  double F64() {
    const uint64_t bits = ReadLE<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // Length-prefixed arrays. The element count is validated against the
  // remaining bytes BEFORE resizing, so a corrupt length cannot trigger a
  // pathological allocation.
  bool U8Vec(std::vector<uint8_t>* v) { return ReadVec(v, sizeof(uint8_t)); }
  bool U32Vec(std::vector<uint32_t>* v) {
    return ReadVec(v, sizeof(uint32_t));
  }

 private:
  template <typename T>
  T ReadLE() {
    uint8_t b[sizeof(T)] = {0};
    Bytes(b, sizeof(T));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(b[i]) << (8 * i);
    }
    return v;
  }

  template <typename V>
  bool ReadVec(V* v, size_t elem_size) {
    size_t count = 0;
    const uint8_t* p = VecSpan(elem_size, &count);
    if (p == nullptr) {
      v->clear();
      return false;
    }
    v->resize(count);
    // count == 0 skips the copy: memcpy's pointer args are declared
    // nonnull, and an empty vector's data() may be null (UBSan).
    if (count > 0) std::memcpy(v->data(), p, count * elem_size);
    return true;
  }

  const uint8_t* p_;
  size_t n_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Matrix payload: dims + the meaningful [0, cols) range of every row.
/// Stride padding (ResizePadded) is dead storage and is deliberately not
/// serialized — a restored matrix is contiguous with identical contents.
inline void WriteMatrix(ByteWriter* w, const Matrix& m) {
  w->U64(m.rows());
  w->U64(m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    w->Bytes(m.Row(r), m.cols() * sizeof(float));
  }
}

inline bool ReadMatrix(ByteReader* r, Matrix* m) {
  const uint64_t rows = r->U64();
  const uint64_t cols = r->U64();
  if (!r->ok() ||
      (cols != 0 && rows > r->remaining() / (cols * sizeof(float)))) {
    return false;
  }
  m->Resize(static_cast<size_t>(rows), static_cast<size_t>(cols));
  for (size_t i = 0; i < rows; ++i) {
    if (!r->Bytes(m->Row(i), static_cast<size_t>(cols) * sizeof(float))) {
      return false;
    }
  }
  return true;
}

/// ReadMatrix constrained to an expected shape — parameter/moment matrices
/// whose dims are fixed by the model architecture reject a stream that
/// disagrees instead of silently reshaping.
inline bool ReadMatrixExpect(ByteReader* r, Matrix* m, size_t rows,
                             size_t cols) {
  const uint64_t got_rows = r->U64();
  const uint64_t got_cols = r->U64();
  if (!r->ok() || got_rows != rows || got_cols != cols ||
      (cols != 0 && rows > r->remaining() / (cols * sizeof(float)))) {
    return false;
  }
  m->Resize(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    if (!r->Bytes(m->Row(i), cols * sizeof(float))) return false;
  }
  return true;
}

}  // namespace splash

#endif  // SPLASH_CORE_SERIALIZE_H_
