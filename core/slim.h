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
//   agg  = weighted mean of the valid m_j          neighbor branch
//   self = relu(x W2 + b2)                         self branch
//   h    = relu([agg || self] W3 + b3)
//   out  = h W4 + b4                               class scores
//
// The assembler (AssembleSlimBatch) writes each neighbor slot's feature
// straight into the layer-1 operand SlimBatchInput::cat1, and Forward()
// runs in preallocated scratch (grow-once; padded 64B-aligned rows) on the
// runtime-dispatched kernels from tensor/matrix.h — each bias+ReLU rides
// its GEMM's tile store as a fused epilogue, the time codes come from the
// dispatched sincos kernel, and the aggregation and self branch write the
// two halves of the head's input in place. A batch of one row reads less:
// each layer takes the one-row kernel (MatMulRowBiasAct), which reads only
// the weight rows its nonzero inputs reach, and a read that no backward
// pass follows stops the neighbor rows after the valid prefix, so a node
// with no history skips the neighbor branch's GEMM. For finite weights
// both are bit-identical to the batched row. TrainStep() backpropagates by
// hand and applies the fused Adam kernel — no autograd, no graph, no
// allocation after warm-up. The backward products through the head
// (d_h = d_out W4^T, d_cat2 = d_h W3^T) are the forward GEMM tile over
// transposed copies of W4 and W3, refreshed from the trained model at the
// start of every backward pass; the weight gradients are MatMulTransA.
// Adam stores an m or v below FLT_MIN as +0 (AdamUpdate in
// tensor/matrix.h): a moment whose gradient stays zero decays to exactly 0
// instead of parking on a subnormal that costs a microcode assist every
// step. Checkpoints keep their format; older ones' moments flush at their
// next step.
//
// Both run on the calling thread over the whole batch. Training dropout
// draws one Rng::Uniform() per hidden unit from the model Rng in row
// order, so a step is a pure function of the weights, the batch and the
// Rng state.

#ifndef SPLASH_CORE_SLIM_H_
#define SPLASH_CORE_SLIM_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/serialize.h"
#include "core/status.h"
#include "core/types.h"
#include "graph/neighbor_memory.h"
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
};

/// One batch of assembled inputs. Row b of node_feats is the query node;
/// rows [b*K, (b+1)*K) of cat1, the layer-1 GEMM operand (padded rows of
/// [neighbor feature || time code]), are its neighbor slots, newest
/// first: the first valid[b] hold a neighbor, the rest are empty (zero
/// features, dt = 0). The assembler writes the feature columns and time_x;
/// the forward writes the time codes of the rows it computes, so it takes
/// the batch by pointer (every owner is per-caller scratch).
struct SlimBatchInput {
  Matrix node_feats;            // B x Dv
  Matrix cat1;                  // B*K x (Dv + Dt), padded
  std::vector<float> time_x;    // B*K: log1p(max(dt, 0)), phi's input
  std::vector<uint32_t> valid;  // B: valid slots, a prefix of the K
  /// B*K aggregation weights, or empty for unit weights (SPLASH; only the
  /// stand-ins' attention families weigh neighbors, by recency).
  std::vector<float> edge_weights;

  /// Shapes every tensor for `b` rows of `opts` inputs (grow-only), with
  /// B*K edge weights when `weighted`, else none.
  void Resize(const SlimOptions& opts, size_t b, bool weighted);
  /// Null (unit weights) or edge_weights' data.
  const float* weights() const {
    return edge_weights.empty() ? nullptr : edge_weights.data();
  }
};

/// Assembles `b` queries into `out`, shaped for `opts` (Resize): per
/// query, its feature (`write_feature(node, float* row)` writes Dv
/// floats), then its ring's neighbors newest first as the valid prefix,
/// each with its feature, log1p(max(dt, 0)) and, when `weighted`, the
/// recency weight 1 / (1 + log1p(max(dt, 0))). `nbr_ids` / `nbr_times`
/// are caller-owned gather scratch, grown to K. Reads `memory` only.
template <class WriteFeature>
void AssembleSlimBatch(const SlimOptions& opts, bool weighted,
                       const NeighborMemory& memory,
                       const PropertyQuery* queries, size_t b,
                       const WriteFeature& write_feature,
                       std::vector<NodeId>* nbr_ids,
                       std::vector<double>* nbr_times, SlimBatchInput* out) {
  const size_t k = opts.k_recent;
  assert(memory.k() == k);
  out->Resize(opts, b, weighted);
  if (nbr_ids->size() < k) {
    nbr_ids->resize(k);
    nbr_times->resize(k);
  }
  for (size_t bi = 0; bi < b; ++bi) {
    const PropertyQuery& q = queries[bi];
    write_feature(q.node, out->node_feats.Row(bi));
    const size_t count =
        memory.GatherRecent(q.node, nbr_ids->data(), nbr_times->data());
    out->valid[bi] = static_cast<uint32_t>(count);
    for (size_t j = 0; j < k; ++j) {
      const size_t idx = bi * k + j;
      float* row = out->cat1.Row(idx);
      if (j >= count) {
        std::memset(row, 0, opts.feature_dim * sizeof(float));
        out->time_x[idx] = 0.0f;
        continue;
      }
      write_feature((*nbr_ids)[j], row);
      const double dt = std::max(q.time - (*nbr_times)[j], 0.0);
      out->time_x[idx] = std::log1p(static_cast<float>(dt));
      if (weighted) {
        out->edge_weights[idx] =
            1.0f / (1.0f + static_cast<float>(std::log1p(dt)));
      }
    }
  }
}

/// Forward-pass activations (grow-only). The model owns one for its fused
/// Forward/TrainStep paths; snapshot readers (serve/) pass their own to the
/// const PredictConst path so concurrent inference never touches model
/// state — that is the const-correctness contract the serving layer's
/// lock-free reads rely on.
struct SlimForwardScratch {
  Matrix msg_pre;  // B*K x H (pre-ReLU, reused as post-ReLU in place)
  Matrix cat2;     // B x 2H: [agg || self]
  Matrix h_pre;    // B x H
  Matrix out;      // B x O
  std::vector<float> inv_weight;   // B: 1 / sum of valid edge weights
  std::vector<uint8_t> drop_mask;  // B*H during training
  std::vector<uint32_t> nz_index;  // one-row layers' nonzero input indices

  /// Grows every matrix for a B-row batch of `o`-shaped inputs.
  void Resize(const SlimOptions& o, size_t b, bool dropout);
};

/// SLIM's training state, kept apart from the model so that a read-only
/// copy (a serve replica) carries its weights only. Two parts:
///   - learned: the Adam moments m/v of every parameter and the Adam step
///     count. Checkpoints write them with the model's weights
///     (SlimModel::Serialize).
///   - per-step transients: the gradients, the backward scratch and the
///     transposed head weights.
/// Everything but the parameter shapes and the step count is allocated at
/// the first TrainStep and then stops allocating: a state that never
/// stepped holds no moment bytes, and its moments read as zero (they are
/// written as zero matrices, so the checkpoint bytes are the same). A
/// service with training off thus holds no optimizer state at all.
/// One train state trains one model's weights. TrainStep pairs them
/// explicitly, so a service can keep a single train state for two
/// alternating replicas of the same model.
class SlimTrainState {
 public:
  /// Parameter order everywhere: w1 b1 w2 b2 w3 b3 w4 b4.
  static constexpr size_t kNumParams = 8;
  struct Shape {
    size_t rows = 0, cols = 0;
  };

  /// Step count 0 and (zero) moments shaped for `opts`'s architecture,
  /// unallocated until the first step.
  explicit SlimTrainState(const SlimOptions& opts);
  /// A copy of `src`'s shapes and learned part; the transients start
  /// empty.
  SlimTrainState(const SlimTrainState& src);
  SlimTrainState& operator=(const SlimTrainState&) = delete;

  /// Makes the learned part a copy of `src`'s, which must be shaped for
  /// the same architecture: copy-assignment at equal shape reuses the
  /// buffers, so once both have stepped this allocates nothing. A `src`
  /// that never stepped leaves this state's moments unallocated too.
  void CopyFrom(const SlimTrainState& src);

  /// Whether the moments are allocated; they are from the first step on.
  bool has_moments() const { return m_[0].rows() != 0; }

 private:
  friend class SlimModel;

  /// Allocates the moments as zero matrices of the stored shapes.
  void AllocateMoments();
  /// Frees the moments: they read as zero again.
  void ReleaseMoments();

  std::array<Shape, kNumParams> shapes_;

  // Learned.
  Matrix m_[kNumParams], v_[kNumParams];  // Adam moments, or unallocated
  size_t adam_t_ = 0;  // optimizer steps taken

  // Per-step transients.
  Matrix grad_[kNumParams];
  Matrix d_out_, d_h_, d_cat2_, d_msg_, d_self_;  // backward scratch
  // W3^T and W4^T of the model being trained, rewritten by every backward
  // pass: a copy kept across steps would go stale when this state trains
  // two alternating replicas.
  Matrix w3t_, w4t_;
};

/// The model: the parameter values and the forward scratch. Everything a
/// reader needs and nothing only training needs: the optimizer state
/// lives in a SlimTrainState that TrainStep takes as an argument.
class SlimModel {
 public:
  SlimModel(const SlimOptions& opts, Rng* rng);
  /// A read-only copy of `src`: its weights, weights version and training
  /// flag, with serial dropout drawn from `rng`. The copy shares `src`'s
  /// weight block until either model first writes its weights (a
  /// TrainStep, CopyLearnedStateFrom or Deserialize), which gives the
  /// writer a private block first; so constructing it allocates nothing,
  /// and two replicas that never train hold one set of weights. It holds
  /// no optimizer state (that is a SlimTrainState) and its activation
  /// scratch starts empty. Sharing is safe across threads as long as one
  /// thread owns the writes of every model sharing the block (the serve
  /// apply thread does): readers dereference the block but never copy the
  /// pointer, so they never touch its reference count.
  SlimModel(const SlimModel& src, Rng* rng);
  // The Rng is borrowed from the owner: a plain copy would share it.
  SlimModel(const SlimModel&) = delete;
  SlimModel& operator=(const SlimModel&) = delete;

  void SetTraining(bool training) { training_ = training; }

  /// Batched forward pass; returns a B x out_dim score matrix. Writes
  /// the time codes into `input`'s operand (as every entry below does).
  Matrix Forward(SlimBatchInput* input);

  /// Inference against frozen weights using caller-owned scratch: serial,
  /// dropout-free, and const — safe to call from many reader threads at
  /// once (each with its own scratch) while no writer mutates the model.
  /// Bit-identical to Forward() in eval mode. Returns a reference into
  /// `scratch` (valid until its next use) so steady-state queries stay
  /// allocation-free — the serving read path's contract.
  const Matrix& PredictConst(SlimBatchInput* input,
                             SlimForwardScratch* scratch) const;

  /// Forward + cross-entropy backward + Adam update of this model's
  /// weights, with the moments, step count and scratch of `train`
  /// (shaped for this architecture). labels[b] in [0, out_dim). Returns
  /// the mean batch loss.
  double TrainStep(SlimBatchInput* input, const std::vector<int>& labels,
                   SlimTrainState* train);

  size_t ParamCount() const { return ParamCount(opts_); }
  /// The parameter count of an `opts`-shaped model, computed without
  /// building one.
  static size_t ParamCount(const SlimOptions& opts);
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
  const Matrix& ReadOwnScratch(SlimBatchInput* input) {
    return PredictConst(input, &fwd_);
  }

  /// Checkpoint hooks: the learned state of this model and of `train` —
  /// the train state's Adam step count, then every parameter matrix
  /// followed by its two Adam moments (zero matrices for a state that
  /// never stepped). Gradients and activation scratch are per-step
  /// transients and are not serialized. Deserialize verifies each matrix
  /// against the architecture-derived shape, so a stream from a
  /// differently-sized model is rejected, never reshaped. It also refuses,
  /// naming the parameter, what no run of TrainStep produces: a
  /// non-finite weight or moment, a negative second moment, or a nonzero
  /// moment at step 0. A step-0 stream leaves `train`'s moments
  /// unallocated.
  void Serialize(ByteWriter* w, const SlimTrainState& train) const;
  Status Deserialize(ByteReader* r, SlimTrainState* train);

  /// Makes this model's read state a copy of `src`'s: the parameter
  /// values and their weights version. Optimizer state lives in a
  /// SlimTrainState and is not copied; activation scratch is left alone.
  /// Copy-assignment at equal shape reuses the existing buffers, so with a
  /// private weight block this allocates nothing (a block shared with
  /// another model is made private first; one shared with `src` needs no
  /// copy). Returns false and changes nothing when `src` has
  /// a different architecture. TrainStep is deterministic, so copying a
  /// trained twin gives the weights training this model on the same
  /// batch would.
  bool CopyLearnedStateFrom(const SlimModel& src);

 private:
  static constexpr size_t kNumParams = SlimTrainState::kNumParams;

  /// The parameter values, one block that read-only copies share.
  struct Weights {
    Matrix w1, b1, w2, b2, w3, b3, w4, b4;
  };

  /// The params in gradient order, for reading.
  std::array<const Matrix*, kNumParams> Params() const {
    const Weights& w = *weights_;
    return {&w.w1, &w.b1, &w.w2, &w.b2, &w.w3, &w.b3, &w.w4, &w.b4};
  }
  /// The params in gradient order, for writing: makes the weight block
  /// private first (OwnWeights), so a write never reaches a sharer.
  std::array<Matrix*, kNumParams> MutableParams() {
    OwnWeights();
    Weights& w = *weights_;
    return {&w.w1, &w.b1, &w.w2, &w.b2, &w.w3, &w.b3, &w.w4, &w.b4};
  }
  /// Gives this model a private copy of its weight block if another model
  /// shares it. The count is exact: every model sharing a block is written
  /// (and copied and destroyed) by one thread, and readers never copy the
  /// pointer.
  void OwnWeights();

  /// Grows the forward scratch (and, for training, `train`'s gradients
  /// and backward scratch) for a B-row batch.
  void ResizeScratch(size_t b, SlimTrainState* train);
  /// Forward for every batch row into `s`. `drop_rng` non-null applies
  /// training dropout. `for_backward` keeps every neighbor slot's
  /// activations for Backward; a read of a one-row batch computes only
  /// the slots up to the last valid one. Const: every mutated activation
  /// lives in the scratch, so readers with private scratch can run this
  /// concurrently against frozen weights.
  void ForwardInto(SlimBatchInput* input, Rng* drop_rng, bool for_backward,
                   SlimForwardScratch* s) const;
  /// One fused dense layer (GEMM + bias + optional ReLU) on rows
  /// [r0, r1), into `out`'s columns [col0, col0 + w.cols()). With index
  /// scratch `nz`, a one-row call takes the one-row kernel, which skips
  /// the weight rows of zero inputs (MatMulRowBiasAct); every other call
  /// the fused GEMM.
  void DenseLayer(const Matrix& in, const Matrix& w, const float* bias,
                  Matrix* out, size_t col0, size_t r0, size_t r1, bool relu,
                  std::vector<uint32_t>* nz) const;
  /// ResizeScratch + ForwardInto into fwd_.
  void ForwardAll(SlimBatchInput* input);
  /// Softmax/CE + backprop from the forward activations in fwd_ into
  /// `train`'s gradients, through its backward scratch. Returns the
  /// batch's summed loss.
  double Backward(const SlimBatchInput& input, const std::vector<int>& labels,
                  SlimTrainState* train) const;
  /// phi(dt) of the first `n` neighbor rows into cat1's time columns.
  void EncodeTime(SlimBatchInput* input, size_t n) const;
  /// Whether `train` is shaped for this model's parameters.
  bool Fits(const SlimTrainState& train) const;

  SlimOptions opts_;
  Rng* rng_;
  bool training_ = false;

  // Shared by read-only copies until the first write (OwnWeights).
  std::shared_ptr<Weights> weights_;
  uint64_t weights_version_ = 1;  // bumped by every weight mutation

  // Forward scratch for the fused (non-const) paths, kept across calls
  // (grow-only). The const PredictConst path uses caller scratch instead.
  SlimForwardScratch fwd_;
};

}  // namespace splash

#endif  // SPLASH_CORE_SLIM_H_
