// Copyright 2026 The SPLASH Reproduction Authors.
//
// The AVX2/FMA kernel backend (DESIGN.md §6): the vector traits for the
// shared kernel body (tensor/kernels_simd_body.h) at 8 lanes, with 6x16
// GEMM register tiles (12 ymm accumulators, the two B vectors and one
// broadcast fill out the 15 usable registers). This translation unit is
// the ONLY one compiled with -mavx2 -mfma (set per-source in
// CMakeLists.txt); nothing here runs unless the runtime dispatcher checked
// cpuid first, so the rest of the binary stays portable baseline codegen.
//
// Every output element is one FMA chain in one lane and sin/cos are a
// polynomial, so this backend is tolerance-equivalent to scalar
// (simd_kernels_test), not bit-equal — determinism oracles pin
// SPLASH_KERNEL=scalar.

#include "tensor/simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cfloat>
#include <cstddef>
#include <cstdint>

#include "tensor/kernels_simd_body.h"

namespace splash {
namespace {

/// For each 8-bit lane mask, the positions of its set bits in ascending
/// order, one per byte from the low byte (the compress AVX2 lacks).
struct CompressTable {
  uint64_t positions[256];
};

constexpr CompressTable MakeCompressTable() {
  CompressTable t{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned n = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if ((m >> lane) & 1u) t.positions[m] |= uint64_t{lane} << (8 * n++);
    }
  }
  return t;
}

constexpr CompressTable kCompressTable = MakeCompressTable();

struct Avx2 {
  using Vec = __m256;
  using Mask = __m256i;
  static constexpr size_t kWidth = 8;
  static constexpr int kTileRows = 6;
  static constexpr int kWideTileRows = 0;  // 4 vectors leave room for 2 rows

  static Vec Zero() { return _mm256_setzero_ps(); }
  static Vec Set1(float v) { return _mm256_set1_ps(v); }
  static Vec Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }

  /// Mask covering the first `rem` (1..8) lanes.
  static Mask TailMask(size_t rem) {
    alignas(32) static const int32_t kMaskSrc[16] = {
        -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kMaskSrc + 8 - rem));
  }
  static Vec MaskLoad(const float* p, Mask m) {
    return _mm256_maskload_ps(p, m);
  }
  static void MaskStore(float* p, Mask m, Vec v) {
    _mm256_maskstore_ps(p, m, v);
  }

  static Vec Add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
  static Vec Max(Vec a, Vec b) { return _mm256_max_ps(a, b); }
  static Vec Sqrt(Vec a) { return _mm256_sqrt_ps(a); }
  static Vec Fma(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
  static Vec Fnma(Vec a, Vec b, Vec c) { return _mm256_fnmadd_ps(a, b, c); }
  static Vec Abs(Vec a) {
    return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a);
  }
  static Vec RoundNearest(Vec a) {
    return _mm256_round_ps(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static Vec FlushTiny(Vec a) {
    const __m256 tiny =
        _mm256_cmp_ps(Abs(a), _mm256_set1_ps(FLT_MIN), _CMP_LT_OQ);
    return _mm256_andnot_ps(tiny, a);
  }

  /// Stores base + lane for each lane of x that is not ±0 (NaN counts) to
  /// out[0, count), ascending, and returns count; out[count, 8) get
  /// garbage.
  static size_t CompressNonzero(Vec x, uint32_t base, uint32_t* out) {
    const unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_NEQ_UQ)));
    const __m256i lanes = _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<long long>(kCompressTable.positions[m])));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out),
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(base)), lanes));
    return static_cast<size_t>(__builtin_popcount(m));
  }

  static void SincosQuadrant(Vec sp, Vec cp, Vec q, Vec x, Vec* s, Vec* c) {
    const __m256 sign_mask = _mm256_set1_ps(-0.0f);
    const __m256i qi = _mm256_cvtps_epi32(q);
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i two = _mm256_set1_epi32(2);
    const __m256 swap = _mm256_castsi256_ps(
        _mm256_cmpeq_epi32(_mm256_and_si256(qi, one), one));
    const __m256 sin_r = _mm256_blendv_ps(sp, cp, swap);
    const __m256 cos_r = _mm256_blendv_ps(cp, sp, swap);
    // Negate masks from quadrant bits: sign bit = (flag != 0) << 31.
    const __m256 sin_neg = _mm256_and_ps(
        _mm256_castsi256_ps(
            _mm256_cmpeq_epi32(_mm256_and_si256(qi, two), two)),
        sign_mask);
    const __m256 cos_neg = _mm256_and_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(
            _mm256_and_si256(_mm256_add_epi32(qi, one), two), two)),
        sign_mask);
    *s = _mm256_xor_ps(_mm256_xor_ps(sin_r, sin_neg),
                       _mm256_and_ps(x, sign_mask));
    *c = _mm256_xor_ps(cos_r, cos_neg);
  }
  static Vec Halves(float lo, float hi) {
    return _mm256_insertf128_ps(_mm256_set1_ps(lo), _mm_set1_ps(hi), 1);
  }
  /// [s0..s7] x [c0..c7] -> lo = (s0,c0 .. s3,c3), hi = (s4,c4 .. s7,c7).
  static void Interleave(Vec s, Vec c, Vec* lo, Vec* hi) {
    const __m256 a = _mm256_unpacklo_ps(s, c);
    const __m256 b = _mm256_unpackhi_ps(s, c);
    *lo = _mm256_permute2f128_ps(a, b, 0x20);
    *hi = _mm256_permute2f128_ps(a, b, 0x31);
  }
};

constexpr KernelTable kAvx2Table = MakeKernelTable<Avx2>("avx2");

}  // namespace

const KernelTable* GetAvx2Kernels() { return &kAvx2Table; }

}  // namespace splash

#else  // !(__AVX2__ && __FMA__)

// Compiled without AVX2 support (non-x86 target or a toolchain without
// -mavx2): the dispatcher sees nullptr and resolves to scalar.
namespace splash {
const KernelTable* GetAvx2Kernels() { return nullptr; }
}  // namespace splash

#endif
