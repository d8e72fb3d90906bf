// Copyright 2026 The SPLASH Reproduction Authors.
//
// The streaming predictor interface every model in the repo implements:
// SPLASH itself, the TGNN baseline stand-ins, and SLADE. The protocol is a
// strict replay loop driven by eval/stream_executor.cc, on one thread:
//
//   Prepare(ds, split)            — one-time fitting on the train period
//   for each epoch / evaluation pass:
//     ResetState()                — clear streaming state, keep weights
//     interleaved by time:
//       ObserveBulk(stream, a, b) — advance streaming state by edges [a, b)
//       StageBatch(queries)       — assemble a batch from state *before*
//                                   later edges
//       TrainStaged / PredictStaged — compute on the staged batch
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

  // --- split-phase batch API ---------------------------------------------
  //
  // StageBatch assembles model inputs from *current* streaming state;
  // TrainStaged / PredictStaged then run pure compute on the staged buffer
  // and the weights, reading no streaming state. One batch is staged at a
  // time.

  /// Read by nothing: every predictor implements the staged calls. Left
  /// for the system benchmark's tracer (benchmark/replay_workload.cc),
  /// which overrides it. Remove it together with that override.
  virtual bool SupportsStagedBatches() const { return true; }

  /// Assembles `queries` (features, neighbor gathers, labels) into the
  /// predictor's staged buffer.
  virtual void StageBatch(const std::vector<PropertyQuery>& queries) = 0;

  /// One gradient step on the staged batch; returns the batch loss.
  /// Training-free models return 0.
  virtual double TrainStaged() = 0;

  /// Scores the staged batch. Returns a (batch x out_dim) matrix; out_dim
  /// >= 2 with class scores per column.
  virtual Matrix PredictStaged() = 0;

  /// StageBatch(queries), then PredictStaged().
  virtual Matrix PredictBatch(const std::vector<PropertyQuery>& queries) {
    StageBatch(queries);
    return PredictStaged();
  }

  /// StageBatch(queries), then TrainStaged().
  virtual double TrainBatch(const std::vector<PropertyQuery>& queries) {
    StageBatch(queries);
    return TrainStaged();
  }

  /// Train/eval mode toggle (dropout etc.).
  virtual void SetTraining(bool training) = 0;

  /// Number of learnable parameters (for Fig. 10's size axis).
  virtual size_t ParamCount() const = 0;
};

}  // namespace splash

#endif  // SPLASH_CORE_PREDICTOR_H_
