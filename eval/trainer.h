// Copyright 2026 The SPLASH Reproduction Authors.
//
// Streaming train / evaluate loops shared by every bench. The protocol
// (paper Sec. V-A) is a strict chronological replay: a query at time t is
// answered with model state from edges strictly before the first edge at
// time >= t; then the stream advances. Queries are mini-batched in arrival
// order for throughput.

#ifndef SPLASH_EVAL_TRAINER_H_
#define SPLASH_EVAL_TRAINER_H_

#include <cstddef>

#include "core/predictor.h"
#include "core/types.h"
#include "datasets/dataset.h"
#include "graph/edge_stream.h"

namespace splash {

/// Builds the standard chronological split: the last `test_frac` of edges
/// (by position) is the test period, the `val_frac` before it validation.
/// Each boundary is placed at the first *index* whose time reaches the
/// positional cut time and snapped to the previous edge's timestamp, so a
/// run of tied timestamps never straddles a boundary — without the snap, a
/// boundary-time query would be scored with its own-time edges already in
/// model state (they replay before the period ends).
ChronoSplit MakeChronoSplit(const EdgeStream& stream, double val_frac,
                            double test_frac);

struct TrainerOptions {
  size_t epochs = 8;
  size_t batch_size = 200;
  bool early_stopping = true;
  size_t patience = 3;  // epochs without val improvement before stopping
  /// Read by nothing: the executor runs one loop on the caller's thread
  /// (eval/stream_executor.h). Left for the system benchmark, which
  /// assigns it (benchmark/replay_workload.cc). Remove it together with
  /// that assignment.
  size_t pipeline_depth = 1;
};

struct FitResult {
  double train_seconds = 0.0;
  double best_val_metric = 0.0;
  size_t epochs_run = 0;
};

struct EvalResult {
  double metric = 0.0;
  double predict_seconds = 0.0;  // time inside PredictBatch only
  size_t num_queries = 0;
};

class StreamTrainer {
 public:
  explicit StreamTrainer(const TrainerOptions& opts) : opts_(opts) {}

  /// Trains on the train period, validating per epoch on the val period.
  /// Replays only up to the validation boundary.
  FitResult Fit(TemporalPredictor* model, const Dataset& ds,
                const ChronoSplit& split);

  /// Replays the full stream and scores the test-period queries with the
  /// task metric.
  EvalResult Evaluate(TemporalPredictor* model, const Dataset& ds,
                      const ChronoSplit& split);

 private:
  TrainerOptions opts_;
};

}  // namespace splash

#endif  // SPLASH_EVAL_TRAINER_H_
