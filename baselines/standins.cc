// Copyright 2026 The SPLASH Reproduction Authors.

#include "baselines/standins.h"

#include <algorithm>
#include <cmath>
#include <cstring>


namespace splash {

namespace {

const char* FamilyName(TgnnFamily f) {
  switch (f) {
    case TgnnFamily::kJodie: return "JODIE";
    case TgnnFamily::kDySat: return "DySAT";
    case TgnnFamily::kTgat: return "TGAT";
    case TgnnFamily::kTgn: return "TGN";
    case TgnnFamily::kGraphMixer: return "GraphMixer";
    case TgnnFamily::kDyGFormer: return "DyGFormer";
  }
  return "?";
}

/// Backbone width multiplier: the heavier the original architecture, the
/// larger the stand-in (drives the Fig. 10 parameter/latency axes).
size_t HiddenMultiplier(TgnnFamily f) {
  switch (f) {
    case TgnnFamily::kJodie: return 1;
    case TgnnFamily::kDySat: return 2;
    case TgnnFamily::kTgat: return 2;
    case TgnnFamily::kTgn: return 2;
    case TgnnFamily::kGraphMixer: return 3;
    case TgnnFamily::kDyGFormer: return 4;
  }
  return 1;
}

// Memory EMA rate: how fast a node's embedding tracks its latest partner.
constexpr float kMemoryRate = 0.2f;

}  // namespace

TgnnStandin::TgnnStandin(const TgnnStandinOptions& opts)
    : opts_(opts),
      name_(std::string(FamilyName(opts.family)) +
            (opts.random_features ? "+RF" : "")),
      rng_(opts.seed),
      memory_(opts.k_recent == 0 ? 1 : opts.k_recent) {
  mix_scratch_.resize(opts_.feature_dim);
}

Status TgnnStandin::Prepare(const Dataset& ds, const ChronoSplit& split) {
  (void)split;
  if (ds.stream.empty()) {
    return Status::Error("TgnnStandin::Prepare: empty stream");
  }
  SlimOptions backbone;
  backbone.feature_dim = opts_.feature_dim;
  backbone.time_dim = opts_.time_dim;
  backbone.hidden_dim = opts_.hidden_dim * HiddenMultiplier(opts_.family);
  backbone.out_dim = std::max<size_t>(2, ds.num_classes);
  backbone.k_recent = memory_.k();  // same clamp as the ring buffer
  backbone_ = std::make_unique<SlimModel>(backbone, &rng_);
  backbone_train_ = std::make_unique<SlimTrainState>(backbone);

  memory_.EnsureNodeCapacity(ds.stream.num_nodes());
  if (IsMemoryFamily()) {
    node_memory_ = Matrix(ds.stream.num_nodes(), opts_.feature_dim);
    initialized_.assign(ds.stream.num_nodes(), 0);
  }
  ResetState();
  return Status::Ok();
}

void TgnnStandin::ResetState() {
  memory_.Clear();
  if (IsMemoryFamily()) {
    node_memory_.SetZero();
    std::fill(initialized_.begin(), initialized_.end(), uint8_t{0});
  }
}

void TgnnStandin::WriteInput(NodeId node, float* out) const {
  const size_t dv = opts_.feature_dim;
  if (IsMemoryFamily()) {
    if (node < node_memory_.rows()) {
      std::memcpy(out, node_memory_.Row(node), dv * sizeof(float));
    } else {
      std::memset(out, 0, dv * sizeof(float));
    }
    return;
  }
  if (opts_.random_features) {
    const uint64_t key = opts_.seed * 0x9e3779b97f4a7c15ULL + node;
    for (size_t j = 0; j < dv; ++j) {
      out[j] = HashGaussian((key << 8) ^ (0x8a5eULL + j));
    }
    return;
  }
  std::memset(out, 0, dv * sizeof(float));
}

void TgnnStandin::ObserveEdge(const TemporalEdge& e, size_t edge_index) {
  memory_.Observe(e, edge_index);
  if (!IsMemoryFamily()) return;

  const size_t hi = static_cast<size_t>(std::max(e.src, e.dst)) + 1;
  if (hi > node_memory_.rows()) {
    const size_t target = GrowCapacity(node_memory_.rows(), hi);
    Matrix next(target, opts_.feature_dim);
    std::memcpy(next.data(), node_memory_.data(),
                node_memory_.size() * sizeof(float));
    node_memory_ = std::move(next);
    initialized_.resize(target, 0);
  }
  const size_t dv = opts_.feature_dim;
  auto init_node = [&](NodeId v) {
    if (initialized_[v]) return;
    initialized_[v] = 1;
    if (opts_.random_features) {
      // Memory starts from the node's random feature.
      float* row = node_memory_.Row(v);
      const uint64_t key = opts_.seed * 0x9e3779b97f4a7c15ULL + v;
      for (size_t j = 0; j < dv; ++j) {
        row[j] = HashGaussian((key << 8) ^ (0x8a5eULL + j));
      }
    }
  };
  init_node(e.src);
  init_node(e.dst);
  // Mutual EMA update: each endpoint's embedding drifts toward its
  // partner's — a parameter-free message-passing memory.
  float* ms = node_memory_.Row(e.src);
  float* md = node_memory_.Row(e.dst);
  for (size_t j = 0; j < dv; ++j) {
    const float s = ms[j], d = md[j];
    ms[j] = (1.0f - kMemoryRate) * s + kMemoryRate * d;
    md[j] = (1.0f - kMemoryRate) * d + kMemoryRate * s;
  }
}

void TgnnStandin::AssembleBatch(const std::vector<PropertyQuery>& queries) {
  const size_t b = queries.size();
  const size_t k = memory_.k();
  const size_t dv = opts_.feature_dim;
  batch_.node_feats.Resize(b, dv);
  batch_.neighbor_feats.Resize(b * k, dv);
  batch_.time_deltas.resize(b * k);
  batch_.mask.Resize(b, k);
  batch_.edge_weights.resize(b * k);

  if (nbr_ids_.size() < k) {
    nbr_ids_.resize(k);
    nbr_times_.resize(k);
  }
  NodeId* nbr_ids = nbr_ids_.data();
  double* nbr_times = nbr_times_.data();
  const bool attention = IsAttentionFamily();
  for (size_t bi = 0; bi < b; ++bi) {
    const PropertyQuery& q = queries[bi];
    WriteInput(q.node, batch_.node_feats.Row(bi));
    const size_t count = memory_.GatherRecent(q.node, nbr_ids, nbr_times);
    float* mask_row = batch_.mask.Row(bi);
    for (size_t j = 0; j < k; ++j) {
      const size_t idx = bi * k + j;
      if (j < count) {
        WriteInput(nbr_ids[j], batch_.neighbor_feats.Row(idx));
        const double dt = q.time - nbr_times[j];
        batch_.time_deltas[idx] = dt;
        // Attention families favor recent partners; others average evenly.
        batch_.edge_weights[idx] =
            attention ? 1.0f / (1.0f + static_cast<float>(std::log1p(
                                           dt < 0.0 ? 0.0 : dt)))
                      : 1.0f;
        mask_row[j] = 1.0f;
      } else {
        std::memset(batch_.neighbor_feats.Row(idx), 0, dv * sizeof(float));
        batch_.time_deltas[idx] = 0.0;
        batch_.edge_weights[idx] = 0.0f;
        mask_row[j] = 0.0f;
      }
    }
  }
}

void TgnnStandin::StageBatch(const std::vector<PropertyQuery>& queries) {
  staged_rows_ = queries.size();
  if (!backbone_ || queries.empty()) return;
  AssembleBatch(queries);
  // Labels are staged unconditionally (a B-int clamp, noise next to the
  // feature gathers) so TrainStaged is valid after ANY StageBatch — a
  // mode-gated skip would leave stale labels for callers that train
  // without the trainer's SetTraining dance.
  const int max_label = static_cast<int>(backbone_->options().out_dim) - 1;
  labels_.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    labels_[i] = std::clamp(queries[i].class_label, 0, max_label);
  }
}

double TgnnStandin::TrainStaged() {
  if (!backbone_ || staged_rows_ == 0) return 0.0;
  return backbone_->TrainStep(batch_, labels_, backbone_train_.get());
}

Matrix TgnnStandin::PredictStaged() {
  if (!backbone_ || staged_rows_ == 0) {
    return Matrix(staged_rows_, backbone_ ? backbone_->options().out_dim : 2);
  }
  return backbone_->Forward(batch_);
}

void TgnnStandin::SetTraining(bool training) {
  if (backbone_) backbone_->SetTraining(training);
}

size_t TgnnStandin::ParamCount() const {
  return backbone_ ? backbone_->ParamCount() : 0;
}

// ---------------------------------------------------------------------------
// SLADE stand-in
// ---------------------------------------------------------------------------

SladeStandin::SladeStandin(const SladeStandinOptions& opts) : opts_(opts) {}

Status SladeStandin::Prepare(const Dataset& ds, const ChronoSplit& split) {
  (void)split;
  EnsureNodeCapacity(ds.stream.num_nodes());
  ResetState();
  return Status::Ok();
}

void SladeStandin::EnsureNodeCapacity(size_t n) {
  if (n <= neighbor_bloom_.size()) return;
  const size_t target = GrowCapacity(neighbor_bloom_.size(), n);
  neighbor_bloom_.resize(target, 0);
  novelty_ema_.resize(target, 0.0f);
  last_time_.resize(target, 0.0);
  gap_ema_.resize(target, 0.0f);
  surprise_ema_.resize(target, 0.0f);
  active_.resize(target, 0);
}

void SladeStandin::ResetState() {
  std::fill(neighbor_bloom_.begin(), neighbor_bloom_.end(), uint64_t{0});
  std::fill(novelty_ema_.begin(), novelty_ema_.end(), 0.0f);
  std::fill(last_time_.begin(), last_time_.end(), 0.0);
  std::fill(gap_ema_.begin(), gap_ema_.end(), 0.0f);
  std::fill(surprise_ema_.begin(), surprise_ema_.end(), 0.0f);
  std::fill(active_.begin(), active_.end(), uint8_t{0});
}

void SladeStandin::ObserveEdge(const TemporalEdge& e, size_t edge_index) {
  (void)edge_index;
  const size_t hi = static_cast<size_t>(std::max(e.src, e.dst)) + 1;
  EnsureNodeCapacity(hi);
  auto update = [&](NodeId v, NodeId partner) {
    // Neighbor-set novelty via a 2-bit bloom probe.
    const uint64_t h = SplitMix64(uint64_t{partner} + 0x51adeULL);
    const uint64_t bits =
        (uint64_t{1} << (h & 63)) | (uint64_t{1} << ((h >> 6) & 63));
    const bool novel = (neighbor_bloom_[v] & bits) != bits;
    neighbor_bloom_[v] |= bits;
    novelty_ema_[v] = 0.85f * novelty_ema_[v] + 0.15f * (novel ? 1.0f : 0.0f);

    // Inter-event time surprise.
    if (active_[v]) {
      const float gap = static_cast<float>(e.time - last_time_[v]);
      const float expected = gap_ema_[v];
      const float surprise =
          std::fabs(gap - expected) / (expected + 1.0f);
      surprise_ema_[v] =
          0.85f * surprise_ema_[v] + 0.15f * std::min(surprise, 4.0f);
      gap_ema_[v] = 0.8f * gap_ema_[v] + 0.2f * gap;
    } else {
      active_[v] = 1;
    }
    last_time_[v] = e.time;
  };
  update(e.src, e.dst);
  update(e.dst, e.src);
}

void SladeStandin::StageBatch(const std::vector<PropertyQuery>& queries) {
  staged_scores_.Resize(queries.size(), 2);
  for (size_t i = 0; i < queries.size(); ++i) {
    const NodeId v = queries[i].node;
    float score = 0.0f;
    if (v < active_.size() && active_[v]) {
      score = novelty_ema_[v] + 0.3f * surprise_ema_[v];
    }
    staged_scores_(i, 0) = 0.0f;
    staged_scores_(i, 1) = score;  // col 1 - col 0 is the anomaly score
  }
}

}  // namespace splash
