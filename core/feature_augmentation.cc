// Copyright 2026 The SPLASH Reproduction Authors.

#include "core/feature_augmentation.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>

#include "tensor/simd.h"

namespace splash {

namespace {

// Salts separating the hash-feature streams of the two propagated matrices.
constexpr uint64_t kRandomSalt = 0x52414e44ULL;      // "RAND"
constexpr uint64_t kPositionalSalt = 0x504f5349ULL;  // "POSI"

// Frequency ratio of the degree code's sincos ladder.
constexpr float kDegreeFreqDecay = 0.6f;

// The positional fit's Laplacian smoothing: passes over the train edges,
// and the share of the gap to its neighbor each endpoint closes per edge.
constexpr size_t kPositionalRounds = 3;
constexpr float kPositionalStep = 0.35f;

using SincosFn = decltype(KernelTable::sincos_encode_rows);

}  // namespace

struct FeatureAugmenter::DegreeCodes {
  SincosFn sincos;  // the kernel that computed `rows`
  size_t dim;
  Matrix rows;  // kCodedDegrees x dim; row d is degree d's code
};

std::shared_ptr<const FeatureAugmenter::DegreeCodes>
FeatureAugmenter::SharedDegreeCodes(size_t dim) {
  // One table per (sincos kernel, feature_dim), kept for the life of the
  // process, so an augmenter built after another of the same width
  // allocates nothing for it.
  struct Registry {
    std::mutex mu;
    std::vector<std::shared_ptr<const DegreeCodes>> tables;  // guarded by mu
  };
  static Registry registry;
  const SincosFn sincos = Kernels().sincos_encode_rows;
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& t : registry.tables) {
    if (t->sincos == sincos && t->dim == dim) return t;
  }
  auto t = std::make_shared<DegreeCodes>(
      DegreeCodes{sincos, dim, Matrix(kCodedDegrees, dim)});
  // The same kernel on the same inputs as EncodeDegree's compute path, in
  // one call over every row.
  std::vector<float> xs(kCodedDegrees);
  for (size_t d = 0; d < kCodedDegrees; ++d) {
    xs[d] = std::log1p(static_cast<float>(d));
  }
  sincos(xs.data(), kCodedDegrees, kDegreeFreqDecay, t->rows.Row(0),
         t->rows.stride(), dim);
  registry.tables.push_back(t);
  return t;
}

FeatureAugmenter::FeatureAugmenter(const FeatureAugmenterOptions& opts)
    : opts_(opts), codes_(SharedDegreeCodes(opts.feature_dim)) {
  Retain(true, true);
}

void FeatureAugmenter::Retain(bool random, bool positional) {
  const uint8_t kept = static_cast<uint8_t>((random ? kKeepRandom : 0) |
                                            (positional ? kKeepPositional : 0));
  const uint8_t added = kept & ~kept_;
  kept_ = kept;
  auto size_rows = [&](Matrix* m, uint8_t bit) {
    if (!(kept & bit)) {
      *m = Matrix();
    } else if (added & bit) {
      *m = Matrix(seen_.size(), opts_.feature_dim);
    }
  };
  size_rows(&random_, kKeepRandom);
  size_rows(&positional_, kKeepPositional);
  if (kept_ != 0) {
    prop_count_.resize(seen_.size(), 0);
    scratch_.resize(opts_.feature_dim);
    return;
  }
  std::vector<uint32_t>().swap(prop_count_);
  std::vector<float>().swap(scratch_);
}

bool FeatureAugmenter::keeps(AugmentationProcess process) const {
  switch (process) {
    case AugmentationProcess::kRandom: return (kept_ & kKeepRandom) != 0;
    case AugmentationProcess::kPositional:
      return (kept_ & kKeepPositional) != 0;
    case AugmentationProcess::kStructural: return false;
  }
  return false;
}

size_t FeatureAugmenter::feature_row_bytes() const {
  return (random_.size() + positional_.size()) * sizeof(float) +
         prop_count_.size() * sizeof(uint32_t);
}

void FeatureAugmenter::EnsureNodeCapacity(size_t n) {
  if (n <= seen_.size()) return;
  const size_t target = GrowCapacity(seen_.size(), n);
  seen_.resize(target, 0);
  if (kept_ != 0) prop_count_.resize(target, 0);
  // Matrix::Resize does not preserve contents, so grow by copy. Growth is
  // geometric; steady-state ObserveEdge never lands here.
  auto grow = [&](Matrix* m, uint8_t bit) {
    if (!(kept_ & bit)) return;
    Matrix next(target, opts_.feature_dim);
    const size_t old_rows = m->rows();
    if (old_rows > 0) {
      std::memcpy(next.data(), m->data(),
                  old_rows * opts_.feature_dim * sizeof(float));
    }
    *m = std::move(next);
  };
  grow(&random_, kKeepRandom);
  grow(&positional_, kKeepPositional);
  degrees_.EnsureNodeCapacity(target);
}

void FeatureAugmenter::FitSeen(const EdgeStream& stream, double fit_time) {
  EnsureNodeCapacity(stream.num_nodes());
  std::fill(seen_.begin(), seen_.end(), uint8_t{0});

  const size_t n_edges = stream.size();
  const NodeId* src = stream.src_data();
  const NodeId* dst = stream.dst_data();
  const double* time = stream.time_data();
  size_t fit_end = 0;
  while (fit_end < n_edges && time[fit_end] <= fit_time) ++fit_end;
  for (size_t i = 0; i < fit_end; ++i) {
    seen_[src[i]] = 1;
    seen_[dst[i]] = 1;
  }

  // Cache seen nodes' hash-Gaussian random features: one row fill at fit
  // time instead of feature_dim hash evaluations per read on the hot path.
  if (kept_ & kKeepRandom) {
    const size_t dim = opts_.feature_dim;
    for (size_t v = 0; v < seen_.size(); ++v) {
      if (!seen_[v]) continue;  // Reset() zeroes the unseen rows
      float* row = random_.Row(v);
      const uint64_t key = opts_.seed * 0x9e3779b97f4a7c15ULL + v;
      for (size_t j = 0; j < dim; ++j) {
        row[j] = HashGaussian((key << 8) ^ (kRandomSalt + j));
      }
    }
  }

  // Positional fit: hash-Gaussian init for seen nodes, then a few rounds of
  // Laplacian smoothing along train edges. Nodes that interact often end up
  // close — a cheap stand-in for node2vec that still reveals communities.
  if (kept_ & kKeepPositional) {
    const size_t dim = opts_.feature_dim;
    const float init_scale = 1.0f / std::sqrt(static_cast<float>(dim));
    for (size_t v = 0; v < seen_.size(); ++v) {
      if (!seen_[v]) continue;
      float* row = positional_.Row(v);
      const uint64_t key = opts_.seed * 0x9e3779b97f4a7c15ULL + v;
      for (size_t j = 0; j < dim; ++j) {
        row[j] = init_scale * HashGaussian((key << 8) ^ (kPositionalSalt + j));
      }
    }
    const float step = kPositionalStep;
    for (size_t round = 0; round < kPositionalRounds; ++round) {
      for (size_t i = 0; i < fit_end; ++i) {
        float* a = positional_.Row(src[i]);
        float* b = positional_.Row(dst[i]);
        for (size_t j = 0; j < dim; ++j) {
          const float av = a[j], bv = b[j];
          a[j] = av + step * (bv - av);
          b[j] = bv + step * (av - bv);
        }
      }
    }
    // Smoothing drives every connected node toward the component mean;
    // remove that common direction, then rescale rows, so what remains is
    // the community-discriminative part.
    std::vector<float> mean(dim, 0.0f);
    size_t n_seen = 0;
    for (size_t v = 0; v < seen_.size(); ++v) {
      if (!seen_[v]) continue;
      Axpy(1.0f, positional_.Row(v), mean.data(), dim);
      ++n_seen;
    }
    if (n_seen > 0) {
      const float inv_n = 1.0f / static_cast<float>(n_seen);
      for (size_t j = 0; j < dim; ++j) mean[j] *= inv_n;
    }
    for (size_t v = 0; v < seen_.size(); ++v) {
      if (!seen_[v]) continue;
      float* row = positional_.Row(v);
      float norm = 0.0f;
      for (size_t j = 0; j < dim; ++j) {
        row[j] -= mean[j];
        norm += row[j] * row[j];
      }
      norm = std::sqrt(norm);
      if (norm > 1e-12f) {
        const float inv = 1.0f / norm;
        for (size_t j = 0; j < dim; ++j) row[j] *= inv;
      }
    }
  }

  Reset();
}

void FeatureAugmenter::Reset() {
  degrees_.Clear();
  std::fill(prop_count_.begin(), prop_count_.end(), 0u);
  // Unseen rows return to zero; seen rows keep their fitted features. A
  // dropped process's table has no rows.
  for (Matrix* rows : {&random_, &positional_}) {
    for (size_t v = 0; v < rows->rows(); ++v) {
      if (!seen_[v]) std::memset(rows->Row(v), 0, rows->cols() * sizeof(float));
    }
  }
}

void FeatureAugmenter::WriteCurrent(const Matrix& rows, NodeId node,
                                    float* out) const {
  // A node past the table is unseen with no incident edge yet: zeros.
  const size_t dim = opts_.feature_dim;
  if (node < rows.rows()) {
    std::memcpy(out, rows.Row(node), dim * sizeof(float));
  } else {
    std::memset(out, 0, dim * sizeof(float));
  }
}

void FeatureAugmenter::PropagateInto(Matrix* m, NodeId node,
                                     const float* src_feat) {
  // Eq. (4)-(5): x_v <- (c * x_v + x_u) / (c + 1) — running mean over the
  // features of observed neighbors. Touches exactly one row.
  const size_t dim = opts_.feature_dim;
  const float c = static_cast<float>(prop_count_[node]);
  const float inv = 1.0f / (c + 1.0f);
  float* row = m->Row(node);
  for (size_t j = 0; j < dim; ++j) row[j] = (c * row[j] + src_feat[j]) * inv;
}

void FeatureAugmenter::FoldInto(NodeId node, NodeId source) {
  // Propagate into unseen `node` from `source`'s *current* feature (fitted
  // if seen, propagated estimate otherwise).
  if (kept_ & kKeepRandom) {
    WriteCurrent(random_, source, scratch_.data());
    PropagateInto(&random_, node, scratch_.data());
  }
  if (kept_ & kKeepPositional) {
    WriteCurrent(positional_, source, scratch_.data());
    PropagateInto(&positional_, node, scratch_.data());
  }
}

void FeatureAugmenter::ObserveEdge(const TemporalEdge& e) {
  if (kept_ == 0) {
    degrees_.Observe(e);
    return;
  }
  const size_t hi = static_cast<size_t>(e.src > e.dst ? e.src : e.dst) + 1;
  if (hi > seen_.size()) EnsureNodeCapacity(hi);
  degrees_.Observe(e);

  const bool src_unseen = !seen_[e.src];
  const bool dst_unseen = !seen_[e.dst];
  if (!src_unseen && !dst_unseen) return;  // steady state: counters only

  if (src_unseen) FoldInto(e.src, e.dst);
  if (dst_unseen) FoldInto(e.dst, e.src);
  if (src_unseen) ++prop_count_[e.src];
  if (dst_unseen) ++prop_count_[e.dst];
}

void FeatureAugmenter::ObserveBulk(const EdgeStream& stream, size_t begin,
                                   size_t end) {
  for (size_t i = begin; i < end; ++i) ObserveEdge(stream[i]);
}

void FeatureAugmenter::WriteFeature(AugmentationProcess process, NodeId node,
                                    float* out) const {
  switch (process) {
    case AugmentationProcess::kRandom:
      if (!(kept_ & kKeepRandom)) break;
      WriteCurrent(random_, node, out);
      return;
    case AugmentationProcess::kPositional:
      if (!(kept_ & kKeepPositional)) break;
      WriteCurrent(positional_, node, out);
      return;
    case AugmentationProcess::kStructural:
      EncodeDegree(degrees_.Degree(node), out);
      return;
  }
  std::memset(out, 0, opts_.feature_dim * sizeof(float));
}

void FeatureAugmenter::WritePlainRandom(NodeId node, float* out) const {
  const size_t dim = opts_.feature_dim;
  const uint64_t key = opts_.seed * 0x9e3779b97f4a7c15ULL + node;
  for (size_t j = 0; j < dim; ++j) {
    out[j] = HashGaussian((key << 8) ^ (kRandomSalt + j));
  }
}

void FeatureAugmenter::EncodeDegree(size_t degree, float* out) const {
  // Sinusoidal encoding of log(1 + degree) at geometrically spaced
  // frequencies — nearby degrees get nearby codes, scale-free overall.
  // This is the per-row hot loop of batch assembly and the serve read
  // path; nearly every degree there is a table row.
  if (degree < kCodedDegrees &&
      codes_->sincos == Kernels().sincos_encode_rows) {
    std::memcpy(out, codes_->rows.Row(degree),
                opts_.feature_dim * sizeof(float));
    return;
  }
  const float x = std::log1p(static_cast<float>(degree));
  SincosEncodeRows(&x, 1, kDegreeFreqDecay, out, opts_.feature_dim,
                   opts_.feature_dim);
}

void FeatureAugmenter::Serialize(ByteWriter* w) const {
  w->U64(opts_.feature_dim);
  w->U64(opts_.seed);
  w->U8(kept_);
  w->U8Vec(seen_);
  w->U32Vec(prop_count_);
  degrees_.Serialize(w);
  if (kept_ & kKeepRandom) WriteMatrix(w, random_);
  if (kept_ & kKeepPositional) WriteMatrix(w, positional_);
}

bool FeatureAugmenter::Deserialize(ByteReader* r) {
  if (r->U64() != opts_.feature_dim || r->U64() != opts_.seed ||
      r->U8() != kept_) {
    return false;
  }
  if (!r->U8Vec(&seen_) || !r->U32Vec(&prop_count_) ||
      !degrees_.Deserialize(r)) {
    return false;
  }
  // Every row table must cover the seen set: reads and the unseen-node
  // folds index them by node id without a bounds check.
  const size_t rows = kept_ != 0 ? seen_.size() : 0;
  const size_t dim = opts_.feature_dim;
  if (prop_count_.size() != rows || degrees_.capacity() < seen_.size()) {
    return false;
  }
  if ((kept_ & kKeepRandom) && !ReadMatrixExpect(r, &random_, rows, dim)) {
    return false;
  }
  if ((kept_ & kKeepPositional) &&
      !ReadMatrixExpect(r, &positional_, rows, dim)) {
    return false;
  }
  return r->ok();
}

}  // namespace splash
