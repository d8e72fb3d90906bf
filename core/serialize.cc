// Copyright 2026 The SPLASH Reproduction Authors.
//
// CRC32C bodies and their once-per-process dispatch (core/serialize.h).

#include "core/serialize.h"

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#endif

namespace splash {
namespace {

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

#if defined(__x86_64__) || defined(__i386__)
// The SSE4.2 crc32 instruction computes exactly the reflected Castagnoli
// CRC, so this is a drop-in for the table loop. Compiled for SSE4.2 via the
// target attribute (no TU-wide ISA flag) and only called after cpuid said
// so, which keeps the binary portable with SPLASH_NATIVE=OFF.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t n,
                                                       uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
#if defined(__x86_64__)
  // 8 bytes per step; the 64-bit form exists only in 64-bit mode, so
  // i386 runs the byte loop below for the whole buffer.
  uint64_t crc64 = crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    crc64 = _mm_crc32_u64(crc64, v);
  }
  crc = static_cast<uint32_t>(crc64);
#endif
  for (; n > 0; --n, ++p) crc = _mm_crc32_u8(crc, *p);
  return ~crc;
}
#endif

Crc32cFn ResolveCrc32c() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed) {
  static const uint32_t* kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  static const Crc32cFn kBody = ResolveCrc32c();
  return kBody(data, n, seed);
}

}  // namespace splash
