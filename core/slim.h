// Copyright 2026 The SPLASH Reproduction Authors.
//
// SLIM (paper Sec. IV-A): the deliberately small temporal model SPLASH
// pairs with feature augmentation. Per query node it combines
//   - the node's own augmented feature,
//   - its k most recent neighbors' features, each tagged with a fixed
//     sinusoidal encoding of the time delta,
// through a two-branch MLP:
//
//   m_j  = relu([x_j || phi(dt_j)] W1 + b1)        per neighbor message
//   agg  = masked weighted mean_j m_j              neighbor branch
//   self = relu(x W2 + b2)                         self branch
//   h    = relu([agg || self] W3 + b3)
//   out  = h W4 + b4                               class scores
//
// Forward() assembles everything in preallocated scratch matrices (they
// grow once to the largest batch and then stop allocating; activations use
// the padded 64B-aligned layout) and runs on the runtime-dispatched
// kernels from tensor/matrix.h — each bias+ReLU rides its GEMM's tile
// store as a fused epilogue, and the time encoding runs on the dispatched
// sincos kernel. A batch of one row reads less: each layer takes the
// one-row kernel (MatMulRowBiasAct), which reads only the weight rows its
// nonzero inputs reach, and a read that no backward pass follows stops the
// neighbor rows after the last valid slot, so a node with no history
// skips the neighbor branch's GEMM. For finite weights both are
// bit-identical to the batched row. TrainStep() backpropagates by hand
// and applies the fused Adam kernel — no autograd, no graph, no
// allocation after warm-up. Adam stores an m or v below FLT_MIN as +0
// (AdamUpdate in tensor/matrix.h): a moment whose gradient stays zero
// decays to exactly 0 instead of parking on a subnormal that costs a
// microcode assist every step. Checkpoints keep their format; older ones'
// moments flush at their next step.
//
// Both run on the calling thread over the whole batch. Training dropout
// draws from the model Rng in row order, so a step is a pure function of
// the weights, the batch and the Rng state.

#ifndef SPLASH_CORE_SLIM_H_
#define SPLASH_CORE_SLIM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/serialize.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace splash {

struct SlimOptions {
  size_t feature_dim = 32;  // Dv: augmented node feature width
  size_t time_dim = 16;     // Dt: time-delta encoding width
  size_t hidden_dim = 64;   // H
  size_t out_dim = 2;       // classes
  size_t k_recent = 10;     // K: neighbors per query
  float dropout = 0.1f;     // on h during training
  float lr = 5e-3f;         // Adam step size
  /// Used by no computation: dropout draws from the model Rng. It stays
  /// only because the predictor state bytes (SplashPredictor::
  /// SerializeState) carry it; the next state-format bump drops it.
  uint64_t dropout_seed = 0xd50bd50bULL;
};

/// One batch of assembled inputs. Row b of node_feats is the query node;
/// rows [b*K, (b+1)*K) of neighbor_feats are its gathered neighbors
/// (newest first), with time_deltas / edge_weights parallel to them and
/// mask(b, j) = 1 iff neighbor slot j is valid.
struct SlimBatchInput {
  Matrix node_feats;                // B x Dv
  Matrix neighbor_feats;            // B*K x Dv
  std::vector<double> time_deltas;  // B*K
  Matrix mask;                      // B x K
  std::vector<float> edge_weights;  // B*K
};

/// Forward-pass activations (grow-only). The model owns one for its fused
/// Forward/TrainStep paths; snapshot readers (serve/) pass their own to the
/// const PredictConst path so concurrent inference never touches model
/// state — that is the const-correctness contract the serving layer's
/// lock-free reads rely on.
struct SlimForwardScratch {
  Matrix cat1;      // B*K x (Dv + Dt): [neighbor feat || time enc]
  Matrix msg_pre;   // B*K x H (pre-ReLU, reused as post-ReLU in place)
  Matrix agg;       // B x H
  Matrix self_pre;  // B x H
  Matrix cat2;      // B x 2H
  Matrix h_pre;     // B x H
  Matrix out;       // B x O
  std::vector<float> inv_weight;   // B: 1 / sum of valid edge weights
  std::vector<uint8_t> drop_mask;  // B*H during training
  std::vector<uint32_t> nz_index;  // one-row layers' nonzero input indices

  /// Grows every matrix for a B-row batch of `opts`-shaped inputs.
  void Resize(size_t b, size_t k_recent, size_t feature_dim, size_t time_dim,
              size_t hidden_dim, size_t out_dim, bool dropout);
};

/// SLIM's training state, kept apart from the model so that a read-only
/// copy (a serve replica) carries its weights only. Two parts:
///   - learned: the Adam moments m/v of every parameter and the step
///     counters (the Adam step and the train-call count). Checkpoints
///     write them with the model's weights (SlimModel::Serialize).
///   - per-step transients: the gradients and the backward scratch. They
///     start empty and grow at the first TrainStep, then stop allocating.
/// One train state trains one model's weights. TrainStep pairs them
/// explicitly, so a service can keep a single train state for two
/// alternating replicas of the same model.
class SlimTrainState {
 public:
  /// Parameter order everywhere: w1 b1 w2 b2 w3 b3 w4 b4.
  static constexpr size_t kNumParams = 8;

  /// Zero moments shaped for `opts`'s architecture, step counters at 0.
  explicit SlimTrainState(const SlimOptions& opts);
  /// A copy of `src`'s learned part; the transients start empty.
  SlimTrainState(const SlimTrainState& src);
  SlimTrainState& operator=(const SlimTrainState&) = delete;

  /// Makes the learned part a copy of `src`'s, which must be shaped for
  /// the same architecture: copy-assignment at equal shape reuses the
  /// buffers, so this allocates nothing.
  void CopyFrom(const SlimTrainState& src);

 private:
  friend class SlimModel;

  // Learned.
  Matrix m_[kNumParams], v_[kNumParams];  // Adam moments
  size_t adam_t_ = 0;
  uint64_t train_calls_ = 0;  // TrainStep calls; checkpointed, else unread

  // Per-step transients.
  Matrix grad_[kNumParams];
  Matrix d_out_, d_h_, d_cat2_, d_msg_, d_self_;  // backward scratch
};

/// The model: the parameter values and the forward scratch. Everything a
/// reader needs and nothing only training needs: the optimizer state
/// lives in a SlimTrainState that TrainStep takes as an argument.
class SlimModel {
 public:
  SlimModel(const SlimOptions& opts, Rng* rng);
  /// A read-only copy of `src`: its weights (CopyLearnedStateFrom) and
  /// training flag, with serial dropout drawn from `rng`. It holds no
  /// optimizer state (that is a SlimTrainState) and its activation
  /// scratch starts empty.
  SlimModel(const SlimModel& src, Rng* rng);
  // The Rng is borrowed from the owner: a plain copy would share it.
  SlimModel(const SlimModel&) = delete;
  SlimModel& operator=(const SlimModel&) = delete;

  void SetTraining(bool training) { training_ = training; }

  /// Batched forward pass; returns a B x out_dim score matrix.
  Matrix Forward(const SlimBatchInput& input);

  /// Inference against frozen weights using caller-owned scratch: serial,
  /// dropout-free, and const — safe to call from many reader threads at
  /// once (each with its own scratch) while no writer mutates the model.
  /// Bit-identical to Forward() in eval mode. Returns a reference into
  /// `scratch` (valid until its next use) so steady-state queries stay
  /// allocation-free — the serving read path's contract.
  const Matrix& PredictConst(const SlimBatchInput& input,
                             SlimForwardScratch* scratch) const;

  /// Forward + cross-entropy backward + Adam update of this model's
  /// weights, with the moments, step counters and scratch of `train`
  /// (shaped for this architecture). labels[b] in [0, out_dim). Returns
  /// the mean batch loss.
  double TrainStep(const SlimBatchInput& input,
                   const std::vector<int>& labels, SlimTrainState* train);

  size_t ParamCount() const;
  const SlimOptions& options() const { return opts_; }

  /// The stamp of the current weights: every weight mutation moves it and
  /// CopyLearnedStateFrom copies it with the weights. Read state derived
  /// from the weights (SplashPredictor's cold-read memo) is current while
  /// it carries this model's stamp. Stamps restart with each constructed
  /// model, so they compare only within one model.
  uint64_t weights_version() const { return weights_version_; }

  /// PredictConst into this model's own grow-only forward scratch, the
  /// one Forward and TrainStep overwrite: an occasional read by the owner
  /// (SplashPredictor's cold-read memo) without scratch of its own. The
  /// result is valid until the next Forward, TrainStep or ReadOwnScratch.
  const Matrix& ReadOwnScratch(const SlimBatchInput& input) {
    return PredictConst(input, &fwd_);
  }

  /// Checkpoint hooks: the learned state of this model and of `train` —
  /// the train state's step counters, then every parameter matrix
  /// followed by its two Adam moments. Gradients and activation scratch
  /// are per-step transients and are not serialized. Deserialize verifies
  /// each matrix against the architecture-derived shape, so a stream from
  /// a differently-sized model is rejected, never reshaped.
  void Serialize(ByteWriter* w, const SlimTrainState& train) const;
  bool Deserialize(ByteReader* r, SlimTrainState* train);

  /// Makes this model's read state a copy of `src`'s: the parameter
  /// values and their weights version. Optimizer state lives in a
  /// SlimTrainState and is not copied; activation scratch is left alone.
  /// Copy-assignment at equal shape reuses the existing buffers, so this
  /// allocates nothing. Returns false and changes nothing when `src` has
  /// a different architecture. TrainStep is deterministic, so copying a
  /// trained twin gives the weights training this model on the same
  /// batch would.
  bool CopyLearnedStateFrom(const SlimModel& src);

 private:
  static constexpr size_t kNumParams = SlimTrainState::kNumParams;

  /// The params in gradient order.
  std::array<Matrix*, kNumParams> Params() {
    return {&w1_, &b1_, &w2_, &b2_, &w3_, &b3_, &w4_, &b4_};
  }
  std::array<const Matrix*, kNumParams> Params() const {
    return {&w1_, &b1_, &w2_, &b2_, &w3_, &b3_, &w4_, &b4_};
  }

  /// Grows the forward scratch (and, for training, `train`'s gradients
  /// and backward scratch) for a B-row batch.
  void ResizeScratch(size_t b, SlimTrainState* train);
  /// Forward for every batch row into `s`. `drop_rng` non-null applies
  /// training dropout. `for_backward` keeps every neighbor slot's
  /// activations for Backward; a read of a one-row batch computes only
  /// the slots up to the last valid one. Const: every mutated activation
  /// lives in the scratch, so readers with private scratch can run this
  /// concurrently against frozen weights.
  void ForwardInto(const SlimBatchInput& input, Rng* drop_rng,
                   bool for_backward, SlimForwardScratch* s) const;
  /// One fused dense layer (GEMM + bias + optional ReLU) on rows
  /// [r0, r1). With index scratch `nz`, a one-row call takes the one-row
  /// kernel, which skips the weight rows of zero inputs
  /// (MatMulRowBiasAct); every other call the fused GEMM.
  void DenseLayer(const Matrix& in, const Matrix& w, const float* bias,
                  Matrix* out, size_t r0, size_t r1, bool relu,
                  std::vector<uint32_t>* nz) const;
  /// ResizeScratch + ForwardInto into fwd_.
  void ForwardAll(const SlimBatchInput& input);
  /// Softmax/CE + backprop from the forward activations in fwd_ into
  /// `train`'s gradients, through its backward scratch. Returns the
  /// batch's summed loss.
  double Backward(const SlimBatchInput& input, const std::vector<int>& labels,
                  SlimTrainState* train) const;
  /// phi(dt) of the first `n` neighbor rows into cat1's time columns.
  void EncodeTime(const std::vector<double>& deltas, size_t n,
                  SlimForwardScratch* s) const;
  /// Whether `train`'s moments are shaped for this model's parameters.
  bool Fits(const SlimTrainState& train) const;

  SlimOptions opts_;
  Rng* rng_;
  bool training_ = false;

  Matrix w1_, b1_, w2_, b2_, w3_, b3_, w4_, b4_;
  uint64_t weights_version_ = 1;  // bumped by every weight mutation

  // Forward scratch for the fused (non-const) paths, kept across calls
  // (grow-only). The const PredictConst path uses caller scratch instead.
  SlimForwardScratch fwd_;
};

}  // namespace splash

#endif  // SPLASH_CORE_SLIM_H_
