// Copyright 2026 The SPLASH Reproduction Authors.
//
// Baseline stand-ins for the comparison tables. These are NOT faithful
// reimplementations of JODIE/TGAT/TGN/...; they are deliberately small
// models that reproduce each family's *failure mode under distribution
// shift* that the paper leans on (see DESIGN.md §3):
//
//   - memory families (JODIE, TGN): a per-node recurrent EMA embedding.
//     Unseen nodes start from nothing, so without input features the model
//     collapses on shifted test periods.
//   - attention families (TGAT, DySAT, DyGFormer): recency-weighted
//     neighbor aggregation with a larger backbone (more parameters, slower
//     — the Fig. 10 trade-off axis).
//   - mixer family (GraphMixer): uniform aggregation, mid-sized backbone.
//
// The "+RF" variants feed per-node random features (the paper's strongest
// simple fix); plain variants feed zeros / memory only.
//
// SladeStandin mirrors SLADE's training-free anomaly scoring: neighbor-set
// novelty plus inter-event time surprise.

#ifndef SPLASH_BASELINES_STANDINS_H_
#define SPLASH_BASELINES_STANDINS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/slim.h"
#include "graph/neighbor_memory.h"
#include "tensor/rng.h"

namespace splash {

enum class TgnnFamily { kJodie, kDySat, kTgat, kTgn, kGraphMixer, kDyGFormer };

struct TgnnStandinOptions {
  TgnnFamily family = TgnnFamily::kTgat;
  bool random_features = false;
  size_t feature_dim = 32;
  size_t hidden_dim = 64;
  size_t time_dim = 16;
  size_t k_recent = 10;
  uint64_t seed = 4242;
};

class TgnnStandin : public TemporalPredictor {
 public:
  explicit TgnnStandin(const TgnnStandinOptions& opts);

  std::string name() const override { return name_; }
  Status Prepare(const Dataset& ds, const ChronoSplit& split) override;
  void ResetState() override;
  void ObserveEdge(const TemporalEdge& e, size_t edge_index) override;
  /// Staged batches (core/predictor.h): StageBatch reads the neighbor
  /// rings / node memory once; TrainStaged / PredictStaged touch only the
  /// staged tensors and the backbone weights.
  void StageBatch(const std::vector<PropertyQuery>& queries) override;
  double TrainStaged() override;
  Matrix PredictStaged() override;
  void SetTraining(bool training) override;
  size_t ParamCount() const override;

 private:
  bool IsMemoryFamily() const {
    return opts_.family == TgnnFamily::kJodie ||
           opts_.family == TgnnFamily::kTgn;
  }
  bool IsAttentionFamily() const {
    return opts_.family == TgnnFamily::kTgat ||
           opts_.family == TgnnFamily::kDySat ||
           opts_.family == TgnnFamily::kDyGFormer;
  }
  /// Current input embedding of `node` (feature_dim floats).
  void WriteInput(NodeId node, float* out) const;

  TgnnStandinOptions opts_;
  std::string name_;
  Rng rng_;
  NeighborMemory memory_;
  std::unique_ptr<SlimModel> backbone_;
  std::unique_ptr<SlimTrainState> backbone_train_;

  // Memory-family state: per-node EMA embedding + seen flags.
  Matrix node_memory_;
  std::vector<uint8_t> initialized_;

  SlimBatchInput batch_;
  std::vector<int> labels_;
  size_t staged_rows_ = 0;  // rows of the staged batch (0 = none staged)
  // k-sized neighbor gather scratch (grow-only).
  std::vector<NodeId> nbr_ids_;
  std::vector<double> nbr_times_;
};

struct SladeStandinOptions {
  size_t k_recent = 10;
  uint64_t seed = 4242;
};

class SladeStandin : public TemporalPredictor {
 public:
  explicit SladeStandin(const SladeStandinOptions& opts);

  std::string name() const override { return "SLADE"; }
  Status Prepare(const Dataset& ds, const ChronoSplit& split) override;
  void ResetState() override;
  void ObserveEdge(const TemporalEdge& e, size_t edge_index) override;
  /// Training-free staging: StageBatch materializes the scores from
  /// current novelty/surprise state; PredictStaged returns the frozen
  /// matrix, reading no streaming state afterward.
  void StageBatch(const std::vector<PropertyQuery>& queries) override;
  double TrainStaged() override { return 0.0; }
  Matrix PredictStaged() override { return staged_scores_; }
  void SetTraining(bool) override {}
  size_t ParamCount() const override { return 0; }

 private:
  void EnsureNodeCapacity(size_t n);

  SladeStandinOptions opts_;
  // Per-node streaming statistics. The bloom fingerprint approximates the
  // long-term neighbor set in 64 bits; novelty = new bits on insert.
  std::vector<uint64_t> neighbor_bloom_;
  std::vector<float> novelty_ema_;
  std::vector<double> last_time_;
  std::vector<float> gap_ema_;
  std::vector<float> surprise_ema_;
  std::vector<uint8_t> active_;
  Matrix staged_scores_;  // grow-only staging buffer (B x 2)
};

}  // namespace splash

#endif  // SPLASH_BASELINES_STANDINS_H_
