// Copyright 2026 The SPLASH Reproduction Authors.
//
// Runtime-dispatched SIMD kernel backend (DESIGN.md §6). Every dense hot
// path in the repo (core/slim.cc forward/backward/Adam, SolveRidge gram
// products, the serve/ query path) flows through one kernel table resolved
// ONCE per process:
//
//   1. SPLASH_KERNEL=scalar  -> the scalar reference backend (plain
//                               blocked loops): the bit-exact
//                               determinism anchor.
//   2. SPLASH_KERNEL=avx2    -> AVX2/FMA kernels (6x16 GEMM tiles, masked
//                               tails); falls back with a stderr warning
//                               if cpuid says no.
//   3. SPLASH_KERNEL=avx512  -> AVX-512 kernels (8x32 GEMM tiles,
//                               __mmask16 predicated tails); falls back to
//                               the best remaining backend with a stderr
//                               warning if cpuid says no.
//   4. SPLASH_KERNEL=auto    -> (default) the widest backend the CPU
//                               supports and the build compiled in:
//                               avx512 > avx2 > scalar.
//
// The two SIMD backends share one width-generic kernel body
// (tensor/kernels_simd_body.h) instantiated on a small vector-traits
// struct; kernels_avx2.cc and kernels_avx512.cc hold only their traits and
// are the only TUs compiled with ISA flags.
//
// Backends are tolerance-equivalent, not bit-equal: the SIMD kernels run
// each output element as one FMA chain and sin/cos as a polynomial, while
// scalar rounds as its build's codegen does and calls libm, so
// determinism tests / committed oracles always pin SPLASH_KERNEL=scalar.
// No SIMD kernel folds lanes horizontally, so avx2 and avx512 round the
// same operations in the same order; nothing relies on their bits
// agreeing. Every kernel runs on the calling thread.
//
// All kernels are stride-aware (operands may carry a padded leading
// dimension, Matrix::ResizePadded) and never read or write a row outside
// its [0, cols) payload — padding lanes are dead storage.

#ifndef SPLASH_TENSOR_SIMD_H_
#define SPLASH_TENSOR_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace splash {

class Matrix;

/// The per-backend kernel set the entry points in tensor/matrix.h call.
/// Scalar fills it by hand (tensor/kernels_scalar.cc); each SIMD backend
/// fills it with MakeKernelTable<Traits> from the shared body.
struct KernelTable {
  const char* name;  // "scalar" | "avx2" | "avx512"

  /// c rows [r0, r1) = a * b (+ c if accumulate). a MxK, b KxN, c MxN.
  void (*matmul_range)(const Matrix& a, const Matrix& b, Matrix* c,
                       size_t r0, size_t r1, bool accumulate);
  /// Fused epilogue: c rows [r0, r1) = act(a * b + bias); bias nullable
  /// (b.cols() entries), act = ReLU when relu.
  void (*matmul_bias_act_range)(const Matrix& a, const Matrix& b, Matrix* c,
                                size_t r0, size_t r1, const float* bias,
                                bool relu);
  /// c += a[r0:r1)^T * b[r0:r1) — reduction-row range, never zeroes c
  /// (callers pre-zero; see MatMulTransARange in tensor/matrix.h).
  void (*matmul_transa_range)(const Matrix& a, const Matrix& b, Matrix* c,
                              size_t r0, size_t r1);
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  void (*column_sums_range)(const Matrix& m, float* out, size_t r0,
                            size_t r1, bool accumulate);
  /// Fused Adam over a flat block; `step` is the bias-corrected lr.
  void (*adam_update)(float* w, const float* g, float* m, float* v,
                      size_t n, float step, float beta1, float beta2,
                      float eps);
  /// Sinusoidal pair encoding of n scalars at geometrically spaced
  /// frequencies — the degree/time feature encoders (SLIM's time encode of
  /// a whole batch, the degree-code table) — into rows of `out` at pitch
  /// `out_stride`. For row r, x = xs[r] and o = out + r * out_stride:
  ///   f_0 = 1, f_{p+1} = f_p * freq_decay
  ///   o[2p] = sin(x * f_p), o[2p+1] = cos(x * f_p)  for 2p+1 < dim
  ///   o[dim-1] = 0.1 * x                            when dim is odd
  /// Only o[0, dim) is written. A row's bits do not depend on n. Scalar
  /// uses libm (the bit-exact reference); avx2/avx512 use a Cody-Waite +
  /// minimax polynomial sincos (~1e-7 absolute error) over one frequency
  /// ladder per call, two rows to a vector when a row's pairs fill at most
  /// half of one.
  void (*sincos_encode_rows)(const float* xs, size_t n, float freq_decay,
                             float* out, size_t out_stride, size_t dim);
  /// One-row fused layer over the row's nonzero inputs only: writes the
  /// positions of a[0, b.rows())'s nonzero entries to `nz` (scratch of
  /// RowIndexScratchSize(b.rows()) entries), then c[0, n) = act(sum over
  /// them of a[k] * b(k, :) + bias). Each output is the dense fused
  /// kernel's ascending-k chain with its zero terms left out, so for
  /// finite B it is bit-identical to that kernel's row on the same
  /// backend (MatMulRowBiasAct in tensor/matrix.h).
  void (*matmul_row_bias_act)(const float* a, uint32_t* nz, const Matrix& b,
                              float* c, const float* bias, bool relu);
};

/// The active kernel table, resolved once (env knob + cpuid) on first use.
const KernelTable& Kernels();

/// Name of the active backend ("scalar", "avx2", or "avx512").
const char* KernelBackendName();

/// True when this CPU can run the AVX2/FMA backend.
bool CpuSupportsAvx2Fma();

/// True when this CPU can run the AVX-512 backend (needs F + VL + DQ).
bool CpuSupportsAvx512();

/// Human-readable cpuid feature summary ("avx2+fma" / "baseline"), recorded
/// in bench JSON context so snapshots are attributable to the host ISA.
std::string CpuFeatureString();

/// Pure resolution logic, exposed for tests: maps the SPLASH_KERNEL value
/// (null = unset) and the cpuid/compile facts to a backend name. An
/// explicitly requested backend that is unavailable falls back to the best
/// remaining one (avx512 -> avx2 -> scalar) with a stderr warning.
const char* ResolveKernelChoice(const char* env, bool cpu_has_avx2,
                                bool avx2_compiled, bool cpu_has_avx512,
                                bool avx512_compiled);

/// Forces a backend for tests/benches ("scalar", "avx2", "avx512", or
/// "auto" to re-resolve from the environment). Returns false (and leaves
/// the active table unchanged) if the requested backend is unavailable.
/// Not thread-safe against concurrent kernel calls — call it only from
/// test set-up, before spawning workers.
bool SetKernelBackendForTesting(const char* name);

/// Backend tables (internal): scalar always exists; avx2/avx512 are null
/// when their TU was compiled without ISA support (non-x86 target).
const KernelTable* GetScalarKernels();
const KernelTable* GetAvx2Kernels();
const KernelTable* GetAvx512Kernels();

/// Data-cache sizes of this host, in bytes. Read from sysfs
/// (/sys/devices/system/cpu/cpu0/cache) on Linux; `detected` is false when
/// that fails and the conservative fallback (32K/1M/no L3) is in effect.
/// No kernel sizes itself from it: bench JSON context stamps the summary
/// string (and the system benchmark its l2_bytes), so timings from unlike
/// cache hierarchies are never silently compared.
struct CacheTopology {
  size_t l1d_bytes;
  size_t l2_bytes;
  size_t l3_bytes;  // 0 when absent
  bool detected;
};

/// The host cache topology, probed once per process.
const CacheTopology& DetectCacheTopology();

/// Canonical context string, e.g. "l1d=49152,l2=2097152,l3=110100480"
/// ("detect-failed" fallback values render the same way with a trailing
/// ",fallback" marker).
std::string CacheTopologyString();

/// Always true. SLIM keeps one row-major weight layout; this exists only
/// for the system benchmark's `gemm_pack` provenance stamp, which its run
/// comparison matches across runs, and goes when that stamp does (ROADMAP
/// item 1).
bool GemmPackEnabled();

}  // namespace splash

#endif  // SPLASH_TENSOR_SIMD_H_
