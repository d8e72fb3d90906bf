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
// Both are batch-parallel on the runtime/ ThreadPool: the batch is cut
// into fixed-size row chunks (boundaries depend on the batch size only,
// never the thread count) and every activation row is owned by exactly
// one chunk, so forward chunks write disjoint rows of the shared scratch.
// In TrainStep each worker backpropagates its chunks into a private
// grow-only gradient scratch; the partials are then reduced into the Adam
// accumulators in fixed worker order, so training is deterministic for a
// given thread count. Dropout draws come from per-chunk Rng streams seeded
// by (dropout_seed, step, chunk) — identical at any thread count > 1.
// With one thread the pre-refactor serial path runs bit-for-bit (dropout
// from the model Rng, full-range kernels).

#ifndef SPLASH_CORE_SLIM_H_
#define SPLASH_CORE_SLIM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/serialize.h"
#include "tensor/matrix.h"
#include "tensor/packed.h"
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
  /// Seed of the per-chunk dropout streams used by the batch-parallel
  /// train path (threads > 1). The serial path draws from the model Rng
  /// instead, preserving the pre-parallel bit-exact behavior.
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
/// copy (a serve replica) carries weights and packs only. Two parts:
///   - learned: the Adam moments m/v of every parameter and the step
///     counters (the Adam step and the train-call count that tags the
///     per-chunk dropout streams). Checkpoints write them with the
///     model's weights (SlimModel::Serialize).
///   - per-step transients: the gradients, the backward scratch, the
///     per-worker gradient partials and the per-chunk losses. They start
///     empty and grow at the first TrainStep, then stop allocating.
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

  /// One worker's private gradient accumulators (grow-only).
  struct GradScratch {
    Matrix g[kNumParams];
  };

  // Learned.
  Matrix m_[kNumParams], v_[kNumParams];  // Adam moments
  size_t adam_t_ = 0;
  uint64_t train_calls_ = 0;  // tags the per-chunk dropout streams

  // Per-step transients.
  Matrix grad_[kNumParams];
  Matrix d_out_, d_h_, d_cat2_, d_msg_, d_self_;  // backward scratch
  // Batch-parallel scratch: per-worker gradient partials and per-chunk
  // loss partials, reduced in fixed order.
  std::vector<GradScratch> worker_grads_;
  std::vector<double> chunk_loss_;
};

/// The model: the parameter values, their read-path packs and the
/// forward scratch. Everything a reader needs and nothing only training
/// needs: the optimizer state lives in a SlimTrainState that TrainStep
/// takes as an argument.
class SlimModel {
 public:
  SlimModel(const SlimOptions& opts, Rng* rng);
  /// A read-only copy of `src`: its weights and packs
  /// (CopyLearnedStateFrom) and training flag, with serial dropout drawn
  /// from `rng`. It holds no optimizer state (that is a SlimTrainState)
  /// and its activation scratch starts empty.
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

  /// Brings the read-path GEMM operands up to the current weights
  /// (pack-once / reuse-many). Packs follow the weights version: every
  /// weight mutation (construction, TrainStep's Adam step, Deserialize)
  /// stamps a new version, and this rebuilds the packs only when their
  /// packed version differs from it. Otherwise it returns at once, so
  /// callers that only need the packs current (the serve publish path) may
  /// call it freely. Runs automatically after construction, every
  /// TrainStep, and a successful Deserialize.
  void PackWeights();

  /// Number of PackWeights calls that rebuilt the packs (construction's
  /// included): the cost counter the version check exists to keep down.
  uint64_t pack_count() const { return pack_count_; }

  /// The stamp of the current weights: every weight mutation moves it and
  /// CopyLearnedStateFrom copies it with the weights. Read state derived
  /// from the weights (the packs, SplashPredictor's cold-read memo) is
  /// current while it carries this model's stamp. Stamps restart with
  /// each constructed model, so they compare only within one model.
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
  /// values, the read-path packs and their versions, so the copy is
  /// query-ready without repacking. Optimizer state lives in a
  /// SlimTrainState and is not copied; activation scratch is left alone,
  /// and pack_count() keeps counting only this model's own rebuilds.
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

  /// The gradient destinations of one backward pass: either the train
  /// state's own grad matrices (serial) or one worker's private scratch
  /// (parallel).
  struct GradRefs {
    Matrix* g[kNumParams];
  };

  /// Grows the forward scratch (and, for training, `train`'s gradients
  /// and backward scratch) for a B-row batch. Must run before chunks are
  /// dispatched: Resize may reallocate.
  void ResizeScratch(size_t b, SlimTrainState* train);
  /// Forward for batch rows [r0, r1) into `s` (disjoint rows per chunk).
  /// `drop_rng` non-null applies training dropout. `for_backward` keeps
  /// every neighbor slot's activations for BackwardRange; a read of a
  /// one-row batch computes only the slots up to the last valid one.
  /// Const: every mutated activation lives in the scratch, so readers
  /// with private scratch can run this concurrently against frozen
  /// weights.
  void ForwardRange(const SlimBatchInput& input, size_t r0, size_t r1,
                    Rng* drop_rng, bool for_backward,
                    SlimForwardScratch* s) const;
  /// One fused dense layer (GEMM + bias + optional ReLU): the packed
  /// kernel when the pack tier is on, the unpacked fused kernel otherwise.
  /// With index scratch `nz`, a one-row call takes the one-row kernel,
  /// which skips the weight rows of zero inputs (MatMulRowBiasAct). `pi`
  /// indexes the pack slot of `w` (w1..w4 -> 0..3).
  void DenseLayer(const Matrix& in, const Matrix& w, const float* bias,
                  size_t pi, Matrix* out, size_t r0, size_t r1, bool relu,
                  std::vector<uint32_t>* nz) const;
  /// Runs ResizeScratch + ForwardRange serial or chunk-parallel.
  void ForwardAll(const SlimBatchInput& input);
  /// Softmax/CE + backprop for batch rows [r0, r1) from the forward
  /// activations in fwd_: gradient contributions of those rows go to
  /// `grads` (added when accumulate), through `train`'s backward scratch;
  /// the rows' summed loss is added to *loss_out.
  void BackwardRange(const SlimBatchInput& input,
                     const std::vector<int>& labels, size_t r0, size_t r1,
                     const GradRefs& grads, bool accumulate,
                     SlimTrainState* train, double* loss_out) const;
  void EncodeTime(const std::vector<double>& deltas, size_t i0, size_t i1,
                  SlimForwardScratch* s) const;
  /// Whether `train`'s moments are shaped for this model's parameters.
  bool Fits(const SlimTrainState& train) const;

  SlimOptions opts_;
  Rng* rng_;
  bool training_ = false;

  Matrix w1_, b1_, w2_, b2_, w3_, b3_, w4_, b4_;

  // Read-path GEMM operands (tensor/packed.h), rebuilt by PackWeights
  // whenever their packed version trails weights_version_, so the const
  // read path never packs.
  PackedMatrix pw_[4];
  uint64_t weights_version_ = 1;  // bumped by every weight mutation
  uint64_t packed_version_ = 0;   // weights version pw_ was built from
  uint64_t pack_count_ = 0;       // PackWeights calls that rebuilt

  // Forward scratch for the fused (non-const) paths, kept across calls
  // (grow-only). The const PredictConst path uses caller scratch instead.
  SlimForwardScratch fwd_;
};

}  // namespace splash

#endif  // SPLASH_CORE_SLIM_H_
