// Copyright 2026 The SPLASH Reproduction Authors.
//
// SplashPredictor: the user-facing facade tying the pipeline together —
// feature augmentation (core/feature_augmentation.h), automatic process
// selection (core/feature_selection.h), k-recent neighbor memory
// (graph/neighbor_memory.h), and the SLIM model (core/slim.h).
//
// The mode controls which features feed SLIM; kAuto is full SPLASH.

#ifndef SPLASH_CORE_SPLASH_H_
#define SPLASH_CORE_SPLASH_H_

#include <memory>
#include <string>
#include <vector>

#include "core/feature_augmentation.h"
#include "core/feature_selection.h"
#include "core/predictor.h"
#include "core/serialize.h"
#include "core/slim.h"
#include "graph/neighbor_memory.h"
#include "tensor/rng.h"

namespace splash {

enum class SplashMode {
  kAuto,             // full SPLASH: linear-probe selection among R/P/S
  kZeroFeatures,     // SLIM+ZF ablation: all-zero node features
  kPlainRandom,      // SLIM+RF ablation: hash random features, no Eq.(4)-(5)
  kForceRandom,      // SPLASH pinned to the R process
  kForcePositional,  // SPLASH pinned to the P process
  kForceStructural,  // SPLASH pinned to the S process
  kJoint,            // R, P and S concatenated
};

std::string SplashModeName(SplashMode mode);

struct SplashOptions {
  SplashMode mode = SplashMode::kAuto;
  FeatureAugmenterOptions augment;
  SlimOptions slim;
  FeatureSelectionOptions select;
  uint64_t seed = 777;
};

/// Per-reader scratch for const snapshot queries (serve/): the assembled
/// batch tensors, the SLIM forward scratch, and the k-sized neighbor
/// gather arrays. One per reader thread; grow-only, so steady-state
/// queries are allocation-free.
struct SplashQueryScratch {
  SlimBatchInput batch;
  SlimForwardScratch fwd;
  std::vector<NodeId> nbr_ids;
  std::vector<double> nbr_times;
  /// Whether the last PredictBatchConst answered from the cold-read memo.
  bool cold_read = false;
};

class SplashPredictor : public TemporalPredictor {
 public:
  explicit SplashPredictor(const SplashOptions& opts);
  /// A copy of `src`'s state made in memory, with empty scratch: the
  /// streaming state, the RNG position, the SLIM weights, and
  /// `src`'s SLIM train state if it still owns one. The serving layer
  /// builds its second replica this way (from a replica whose train state
  /// it took, so the copy is read-only) instead of preparing (and
  /// fitting) twice.
  SplashPredictor(const SplashPredictor& src);

  std::string name() const override { return SplashModeName(opts_.mode); }
  Status Prepare(const Dataset& ds, const ChronoSplit& split) override;
  void ResetState() override;
  void ObserveEdge(const TemporalEdge& e, size_t edge_index) override;
  /// Augmenter replay (FeatureAugmenter::ObserveBulk), then the ring
  /// ingest (NeighborMemory::ObserveBulk), each in stream order.
  void ObserveBulk(const EdgeStream& stream, size_t begin,
                   size_t end) override;
  /// Staged batches (core/predictor.h): AssembleBatch reads streaming
  /// state once in StageBatch; TrainStaged / PredictStaged touch only the
  /// staged tensors and SLIM weights.
  void StageBatch(const std::vector<PropertyQuery>& queries) override;
  /// Trains the staged batch with this predictor's own train state.
  double TrainStaged() override;
  /// Trains the staged batch with `train`, a SLIM train state shaped for
  /// this predictor's architecture: how the serving layer trains a
  /// read-only replica with the one train state it owns.
  double TrainStaged(SlimTrainState* train);
  Matrix PredictStaged() override;
  void SetTraining(bool training) override;
  size_t ParamCount() const override;

  /// The augmentation process kAuto picked in Prepare() (meaningful for
  /// forced modes too: it mirrors the forced process).
  AugmentationProcess selected_process() const { return selected_; }

  /// Const snapshot query (the serving layer's read path): assembles the
  /// batch into caller scratch and runs the dropout-free const SLIM
  /// forward. Touches no predictor state, so any number of reader threads
  /// may call it concurrently — each with its own scratch — while no
  /// writer mutates the predictor. Bit-identical to PredictBatch in eval
  /// mode on the same streaming state. Returns a reference into `scratch`
  /// (valid until its next use): steady-state queries allocate nothing
  /// (allocation_steady_state_test gates this under the SIMD backend too).
  ///
  /// A cold read skips the forward: a batch of one row whose query has no
  /// valid neighbor slot and whose assembled feature row is memcmp-equal
  /// to the cold row is copied out of the cold-read memo, if the memo
  /// carries the current SLIM weights version (PrepareForPublish). Such a
  /// read computes from the same input through the same one-row path the
  /// memo was computed on, so the copy is bit-identical to computing it.
  /// Every other batch computes; `scratch->cold_read` says which happened.
  const Matrix& PredictBatchConst(const std::vector<PropertyQuery>& queries,
                                  SplashQueryScratch* scratch) const;

  // Const views for the serving layer's drift/quality counters.
  const FeatureAugmenter& augmenter() const { return augmenter_; }
  const NeighborMemory& memory() const { return memory_; }
  size_t input_dim() const { return input_dim_; }
  /// SLIM's class count (0 before Prepare): valid labels are [0, out_dim).
  size_t out_dim() const { return slim_ ? slim_->options().out_dim : 0; }

  /// Hands SLIM's train state (Adam moments, step counters, gradient
  /// scratch) to the caller and leaves this predictor a read-only replica:
  /// it answers queries, observes edges and copies models, and trains and
  /// serializes only with a train state passed in. Null before Prepare or
  /// once released.
  std::unique_ptr<SlimTrainState> ReleaseTrainState() {
    return std::move(train_);
  }

  /// Guarantees the cold-read memo matches the current weights once it
  /// returns, so a published replica's cold reads skip the forward. The
  /// memo follows the weights version (SlimModel::weights_version), so
  /// this only verifies after an edge-only batch and after CopyModelFrom,
  /// which copies the memo with the weights. When the version moved (a
  /// TrainStep, a restore), the memo is recomputed: one one-row read of
  /// the cold row (the feature row of a node no edge has touched, i.e. of
  /// kInvalidNode) with every neighbor slot masked, in SLIM's own forward
  /// scratch. The serving layer calls this on every publish and catch-up,
  /// with the kernel backend it serves on; the memo holds that backend's
  /// bits.
  void PrepareForPublish();

  /// Copies `src`'s SLIM weights (SlimModel::CopyLearnedStateFrom), its
  /// cold-read memo and the position of the predictor RNG, which the
  /// serial dropout path draws from. A read-only replica (the serve
  /// catch-up) copies only that. A predictor that owns a train state also
  /// copies `src`'s moments and step counters, so an offline twin that
  /// observed the same edges and then copies the model ends
  /// byte-identical in SerializeState to a twin that also trained.
  /// Streaming state (augmenter, neighbor rings) is untouched. Both
  /// predictors must be prepared with the same SLIM architecture, and
  /// `src` must own a train state if this one does; otherwise this
  /// returns an error and changes nothing. Allocation-free.
  Status CopyModelFrom(const SplashPredictor& src);

  /// Checkpoint hooks (serve/checkpoint): the complete post-Prepare state —
  /// RNG stream, selected process, augmenter (fitted + dynamic), neighbor
  /// rings, SLIM's params and its train state's learned part (Adam
  /// moments + step counters). The one-argument form writes this
  /// predictor's own train state; a read-only replica serializes together
  /// with the train state its owner passes in (non-null once prepared),
  /// and the bytes are the same either way. DeserializeState restores a
  /// predictor that owns its train state again: it needs neither Prepare()
  /// nor a warmup dataset and resumes bit-identically to the serialized
  /// one. The cold-read memo is derived state: it is not written, and
  /// DeserializeState rebuilds it (PrepareForPublish). The augmenter part
  /// holds rows only for the processes the mode reads
  /// (RetainReadableProcesses), so DeserializeState applies the
  /// blob's kept set before reading it. It refuses any state version but
  /// the current one (version 1 predates the kept set) with an error that
  /// names the version, validates a config fingerprint (seed / mode /
  /// feature_dim and the serialized SLIM architecture) and fails without
  /// partial mutation visible to queries only if the very first header
  /// check fails; callers treat any error as "replica unusable" and
  /// abandon recovery.
  void SerializeState(ByteWriter* w) const;
  void SerializeState(ByteWriter* w, const SlimTrainState* train) const;
  Status DeserializeState(ByteReader* r);

 private:
  /// Keeps the augmenter's rows for the processes this mode can read: R
  /// for kForceRandom, P for kForcePositional, both for kJoint, nothing
  /// for S and the ablations. kAuto keeps both while `selecting`, then
  /// only selected_.
  void RetainReadableProcesses(bool selecting);
  /// Writes the mode's SLIM input feature of `node` (input_dim_ floats).
  void WriteNodeFeature(NodeId node, float* out) const;
  /// Shapes `out` for a `b`-row batch (grow-only).
  void ResizeBatch(size_t b, SlimBatchInput* out) const;
  /// Assembles the `b` queries into `out` (pre-sized). `nbr_ids` /
  /// `nbr_times` are k-sized gather scratch owned by the caller. Reads
  /// streaming state only — shared by AssembleBatch, the const snapshot
  /// path and the cold-read memo.
  void AssembleRows(const PropertyQuery* queries, size_t b,
                    SlimBatchInput* out, NodeId* nbr_ids,
                    double* nbr_times) const;
  void AssembleBatch(const std::vector<PropertyQuery>& queries);
  /// Whether the one-row batch `in` is the memo's: no valid neighbor
  /// slot, the memo's feature row, and a memo at the current weights.
  bool IsColdRead(const SlimBatchInput& in) const;

  SplashOptions opts_;
  Rng rng_;
  FeatureAugmenter augmenter_;
  NeighborMemory memory_;
  std::unique_ptr<SlimModel> slim_;
  // SLIM's optimizer state: owned from Prepare/DeserializeState until
  // ReleaseTrainState hands it to a trainer outside (the serving layer).
  std::unique_ptr<SlimTrainState> train_;
  AugmentationProcess selected_ = AugmentationProcess::kStructural;
  size_t input_dim_ = 0;

  // Assembly scratch (grow-only, reused across batches), with the
  // k-sized neighbor gather arrays.
  SlimBatchInput batch_;
  std::vector<int> labels_;
  size_t staged_rows_ = 0;  // rows of the staged batch (0 = none staged)
  std::vector<NodeId> nbr_ids_;
  std::vector<double> nbr_times_;

  /// The cold-read memo: `out` is SLIM's one-row read of `input` (the
  /// cold row, every neighbor slot masked) at SLIM weights version
  /// `version`; 0 is none, and the version restarts with every new
  /// SlimModel, so Prepare and DeserializeState reset it. Derived read
  /// state: copied with the weights, never serialized.
  struct ColdReadMemo {
    SlimBatchInput input;
    Matrix out;
    uint64_t version = 0;
  };
  ColdReadMemo cold_;
};

}  // namespace splash

#endif  // SPLASH_CORE_SPLASH_H_
