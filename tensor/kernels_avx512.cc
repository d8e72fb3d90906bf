// Copyright 2026 The SPLASH Reproduction Authors.
//
// The AVX-512 kernel backend (DESIGN.md §6): the vector traits for the
// shared kernel body (tensor/kernels_simd_body.h) at 16 lanes, with 8x32
// GEMM register tiles (16 zmm accumulators plus the two B vectors and one
// broadcast fit comfortably in the 32 architectural registers), 6x64
// MatMulTransA tiles (24 + 4 + 1 zmm) and __mmask16-predicated tails.
// This translation unit is the ONLY one compiled with -mavx512f
// -mavx512vl -mavx512dq (set per-source in CMakeLists.txt); nothing here
// runs unless the runtime dispatcher checked cpuid first, so the rest of
// the binary stays portable baseline codegen.
//
// Every output element is one FMA chain in one lane and sin/cos are a
// polynomial, so this backend is tolerance-equivalent to scalar
// (simd_kernels_test), not bit-equal — determinism oracles pin
// SPLASH_KERNEL=scalar.

#include "tensor/simd.h"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <cfloat>
#include <cstddef>
#include <cstdint>

#include "tensor/kernels_simd_body.h"

namespace splash {
namespace {

struct Avx512 {
  using Vec = __m512;
  using Mask = __mmask16;
  static constexpr size_t kWidth = 16;
  static constexpr int kTileRows = 8;
  static constexpr int kWideTileRows = 6;  // 24 acc + 4 B + 1 broadcast

  static Vec Zero() { return _mm512_setzero_ps(); }
  static Vec Set1(float v) { return _mm512_set1_ps(v); }
  static Vec Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm512_storeu_ps(p, v); }

  /// Mask covering the first `rem` (1..16) lanes.
  static Mask TailMask(size_t rem) {
    return static_cast<__mmask16>((1u << rem) - 1u);
  }
  static Vec MaskLoad(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void MaskStore(float* p, Mask m, Vec v) {
    _mm512_mask_storeu_ps(p, m, v);
  }

  static Vec Add(Vec a, Vec b) { return _mm512_add_ps(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm512_sub_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm512_mul_ps(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm512_div_ps(a, b); }
  static Vec Max(Vec a, Vec b) { return _mm512_max_ps(a, b); }
  static Vec Sqrt(Vec a) { return _mm512_sqrt_ps(a); }
  static Vec Fma(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }
  static Vec Fnma(Vec a, Vec b, Vec c) { return _mm512_fnmadd_ps(a, b, c); }
  static Vec Abs(Vec a) {
    return _mm512_andnot_ps(_mm512_set1_ps(-0.0f), a);
  }
  static Vec RoundNearest(Vec a) {
    return _mm512_roundscale_ps(a,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static Vec FlushTiny(Vec a) {
    const __mmask16 tiny =
        _mm512_cmp_ps_mask(Abs(a), _mm512_set1_ps(FLT_MIN), _CMP_LT_OQ);
    return _mm512_maskz_mov_ps(static_cast<__mmask16>(~tiny), a);
  }

  /// Stores base + lane for each lane of x that is not ±0 (NaN counts) to
  /// out[0, count), ascending, and returns count; out[count, 16) get
  /// garbage.
  static size_t CompressNonzero(Vec x, uint32_t base, uint32_t* out) {
    const __mmask16 m =
        _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_NEQ_UQ);
    const __m512i lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                            10, 11, 12, 13, 14, 15);
    _mm512_storeu_si512(
        out, _mm512_maskz_compress_epi32(
                 m, _mm512_add_epi32(_mm512_set1_epi32(base), lanes)));
    return static_cast<size_t>(__builtin_popcount(m));
  }

  static void SincosQuadrant(Vec sp, Vec cp, Vec q, Vec x, Vec* s, Vec* c) {
    const __m512 sign_mask = _mm512_set1_ps(-0.0f);
    const __m512i qi = _mm512_cvtps_epi32(q);
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i two = _mm512_set1_epi32(2);
    const __mmask16 swap =
        _mm512_cmpeq_epi32_mask(_mm512_and_epi32(qi, one), one);
    const __m512 sin_r = _mm512_mask_blend_ps(swap, sp, cp);
    const __m512 cos_r = _mm512_mask_blend_ps(swap, cp, sp);
    const __mmask16 sin_neg =
        _mm512_cmpeq_epi32_mask(_mm512_and_epi32(qi, two), two);
    const __mmask16 cos_neg = _mm512_cmpeq_epi32_mask(
        _mm512_and_epi32(_mm512_add_epi32(qi, one), two), two);
    *s = _mm512_xor_ps(_mm512_mask_xor_ps(sin_r, sin_neg, sin_r, sign_mask),
                       _mm512_and_ps(x, sign_mask));
    *c = _mm512_mask_xor_ps(cos_r, cos_neg, cos_r, sign_mask);
  }
  static Vec Halves(float lo, float hi) {
    return _mm512_insertf32x8(_mm512_set1_ps(lo), _mm256_set1_ps(hi), 1);
  }
  /// [s0..s15] x [c0..c15] -> (s,c) pairs via two-source permutes:
  /// indices 0..15 select from s, 16..31 from c.
  static void Interleave(Vec s, Vec c, Vec* lo, Vec* hi) {
    const __m512i idx_lo = _mm512_set_epi32(23, 7, 22, 6, 21, 5, 20, 4, 19,
                                            3, 18, 2, 17, 1, 16, 0);
    const __m512i idx_hi = _mm512_set_epi32(31, 15, 30, 14, 29, 13, 28, 12,
                                            27, 11, 26, 10, 25, 9, 24, 8);
    *lo = _mm512_permutex2var_ps(s, idx_lo, c);
    *hi = _mm512_permutex2var_ps(s, idx_hi, c);
  }
};

constexpr KernelTable kAvx512Table = MakeKernelTable<Avx512>("avx512");

}  // namespace

const KernelTable* GetAvx512Kernels() { return &kAvx512Table; }

}  // namespace splash

#else  // !(__AVX512F__ && __AVX512VL__ && __AVX512DQ__)

// Compiled without AVX-512 support (non-x86 target or a toolchain without
// -mavx512f): the dispatcher sees nullptr and resolves past this backend.
namespace splash {
const KernelTable* GetAvx512Kernels() { return nullptr; }
}  // namespace splash

#endif
