// Copyright 2026 The SPLASH Reproduction Authors.
//
// Backend-independent pack routines for the cache-aware GEMM tier
// (tensor/packed.h): plain sequential-write re-tiling, no intrinsics —
// only the GEMM kernels themselves are backend code. Packing cost is
// O(k * n) copies, paid once per weights version against many reuses.

#include "tensor/packed.h"

#include <cstring>

#include "tensor/simd.h"

namespace splash {

size_t PackedKBlockRows(size_t k, size_t n) {
  if (k == 0) return 0;
  const size_t panels = (n + PackedMatrix::kPanelCols - 1) /
                        PackedMatrix::kPanelCols;
  const size_t bytes_per_row = panels * PackedMatrix::kPanelCols *
                               sizeof(float);
  // Half of L2 for the resident B block: the other half stays available
  // for the streaming A rows and the C partials.
  const size_t budget = DetectCacheTopology().l2_bytes / 2;
  size_t kb = bytes_per_row > 0 ? budget / bytes_per_row : k;
  kb = kb / 16 * 16;         // whole 16-row groups
  if (kb < 32) kb = 32;      // floor: never shred tiny reductions
  if (kb > k) kb = k;
  return kb;
}

void PackedMatrix::PackFrom(const Matrix& b) {
  k_ = b.rows();
  n_ = b.cols();
  if (empty()) return;
  kb_ = PackedKBlockRows(k_, n_);
  const size_t total = k_ * panels() * kPanelCols;
  if (data_.size() < total) data_.Resize(total);
  float* dst = data_.data();
  for (size_t k0 = 0; k0 < k_; k0 += kb_) {
    const size_t rows = BlockRows(k0 / kb_);
    for (size_t jp = 0; jp < panels(); ++jp) {
      const size_t j0 = jp * kPanelCols;
      const size_t w = n_ - j0 < kPanelCols ? n_ - j0 : kPanelCols;
      for (size_t kk = 0; kk < rows; ++kk) {
        std::memcpy(dst, b.Row(k0 + kk) + j0, w * sizeof(float));
        for (size_t j = w; j < kPanelCols; ++j) dst[j] = 0.0f;
        dst += kPanelCols;
      }
    }
  }
}

}  // namespace splash
