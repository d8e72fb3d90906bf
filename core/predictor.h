// Copyright 2026 The SPLASH Reproduction Authors.
//
// The streaming predictor interface every model in the repo implements:
// SPLASH itself, the TGNN baseline stand-ins, and SLADE. The protocol is a
// strict replay loop driven by eval/trainer.cc:
//
//   Prepare(ds, split)            — one-time fitting on the train period
//   for each epoch / evaluation pass:
//     ResetState()                — clear streaming state, keep weights
//     interleaved by time:
//       PredictBatch / TrainBatch — answer queries with state *before* later
//                                   edges
//       ObserveEdge(e, i)         — advance streaming state by one edge
//
// ObserveEdge must be O(1) amortized and allocation-free at steady state;
// that contract is what bench_micro_substrate measures.

#ifndef SPLASH_CORE_PREDICTOR_H_
#define SPLASH_CORE_PREDICTOR_H_

#include <string>
#include <vector>

#include "core/status.h"
#include "core/types.h"
#include "datasets/dataset.h"
#include "graph/edge_stream.h"
#include "tensor/matrix.h"

namespace splash {

class TemporalPredictor {
 public:
  virtual ~TemporalPredictor() = default;

  /// Human-readable model name ("SPLASH", "TGAT+RF", ...).
  virtual std::string name() const = 0;

  /// One-time preparation on the training period (feature fitting, feature
  /// selection, sizing). The dataset must outlive the predictor.
  virtual Status Prepare(const Dataset& ds, const ChronoSplit& split) = 0;

  /// Clears streaming state (neighbor rings, degree counters, propagated
  /// features) back to the post-Prepare snapshot. Learned weights survive.
  virtual void ResetState() = 0;

  /// Advances streaming state by one edge. `edge_index` is the position in
  /// the stream (monotone across one replay).
  virtual void ObserveEdge(const TemporalEdge& e, size_t edge_index) = 0;

  /// Bulk state advance: equivalent to ObserveEdge on each edge of
  /// [begin, end) in stream order, on the calling thread. The default is
  /// the per-edge loop; SplashPredictor replays each of its state parts
  /// over the whole range in turn.
  virtual void ObserveBulk(const EdgeStream& stream, size_t begin,
                           size_t end) {
    for (size_t i = begin; i < end; ++i) ObserveEdge(stream[i], i);
  }

  // --- split-phase batch API (the pipelined executor's contract) ---------
  //
  // StageBatch assembles model inputs from *current* streaming state;
  // TrainStaged / PredictStaged then run pure compute on the staged buffer
  // and the weights, reading NO streaming state — which is what lets the
  // executor overlap them with ObserveBulk of later edges. A predictor
  // that cannot honor that split keeps the default (unsupported) and the
  // executor falls back to the serial fused calls.

  /// Whether StageBatch / TrainStaged / PredictStaged are implemented and
  /// honor the no-streaming-state-reads contract after staging.
  virtual bool SupportsStagedBatches() const { return false; }

  /// Assembles `queries` (features, neighbor gathers, labels) into the
  /// predictor's staged buffer. One batch staged at a time.
  virtual void StageBatch(const std::vector<PropertyQuery>& queries) {
    (void)queries;
  }

  /// TrainBatch on the staged buffer; returns the batch loss.
  virtual double TrainStaged() { return 0.0; }

  /// PredictBatch on the staged buffer; returns the score matrix.
  virtual Matrix PredictStaged() { return Matrix(0, 0); }

  /// Scores a batch of queries against current streaming state. Returns a
  /// (batch x out_dim) matrix; out_dim >= 2 with class scores per column.
  virtual Matrix PredictBatch(const std::vector<PropertyQuery>& queries) = 0;

  /// One gradient step on a batch of labeled queries. Returns the batch
  /// loss. Training-free models return 0 and ignore the call.
  virtual double TrainBatch(const std::vector<PropertyQuery>& queries) {
    (void)queries;
    return 0.0;
  }

  /// Train/eval mode toggle (dropout etc.).
  virtual void SetTraining(bool training) = 0;

  /// Number of learnable parameters (for Fig. 10's size axis).
  virtual size_t ParamCount() const = 0;
};

}  // namespace splash

#endif  // SPLASH_CORE_PREDICTOR_H_
