// Copyright 2026 The SPLASH Reproduction Authors.
//
// The streaming executor: turns the trainer's chronological replay loop
// into an explicit schedule of ops and runs it on the caller's thread.
//
// Schedule. One epoch of the replay protocol is a sequence of ReplayOps,
// each "observe edges [edge_begin, edge_end), then flush queries
// [query_begin, query_end)". BuildFitSchedule / BuildEvalSchedule derive
// the op list from (dataset, split, batch_size) with exactly the flush
// points of the historical interleaved loop: a full batch flushes right
// before the first edge whose time reaches its last query's time; partial
// batches flush after the replay tail (train before val, matching the old
// post-loop flush order). The schedule depends only on immutable data, so
// Fit builds it once and replays it every epoch.
//
// Execution. One loop, one thread: per op, ObserveBulk of its edges, then
// on a flush StageBatch (assembly reads streaming state at the op's
// horizon) and TrainStaged or PredictStaged. Every bulk replay is the
// per-edge loop in stream order, so the run is bit-identical to per-edge
// ObserveEdge plus fused TrainBatch / PredictBatch over the same schedule
// (stream_executor_test pins it).

#ifndef SPLASH_EVAL_STREAM_EXECUTOR_H_
#define SPLASH_EVAL_STREAM_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/predictor.h"
#include "core/types.h"
#include "datasets/dataset.h"
#include "graph/edge_stream.h"
#include "tensor/matrix.h"

namespace splash {

/// One step of a replay schedule: observe edges [edge_begin, edge_end) of
/// the stream in order, then flush queries [query_begin, query_end).
struct ReplayOp {
  enum class Flush : uint8_t {
    kNone,     // observe only (replay tail)
    kTrain,    // TrainBatch on the query range
    kPredict,  // PredictBatch; scores go to the Run sink
  };
  size_t edge_begin = 0;
  size_t edge_end = 0;
  size_t query_begin = 0;
  size_t query_end = 0;
  Flush flush = Flush::kNone;
};

/// Schedule of one Fit epoch: train-period queries flush as kTrain,
/// val-period queries as kPredict, edges replay up to the validation
/// boundary. Flush points match the historical interleaved loop exactly
/// (see file header). `ops` is cleared first.
void BuildFitSchedule(const Dataset& ds, const ChronoSplit& split,
                      size_t batch_size, std::vector<ReplayOp>* ops);

/// Schedule of one Evaluate pass: the full stream replays, test-period
/// queries (time > val_end_time) flush as kPredict.
void BuildEvalSchedule(const Dataset& ds, const ChronoSplit& split,
                       size_t batch_size, std::vector<ReplayOp>* ops);

class StreamExecutor {
 public:
  /// Called after each kPredict flush with the op and its score matrix.
  using PredictSink = std::function<void(const ReplayOp&, const Matrix&)>;

  /// Executes `ops` over (model, stream, queries). `training` mirrors the
  /// trainer's historical mode dance: when true, each kPredict flush is
  /// computed with SetTraining(false) and training mode is restored after.
  void Run(TemporalPredictor* model, const EdgeStream& stream,
           const std::vector<PropertyQuery>& queries,
           const std::vector<ReplayOp>& ops, bool training,
           const PredictSink& on_predict);

  /// Seconds spent staging + scoring kPredict flushes during the last
  /// Run: the time inside PredictBatch that EvalResult reports.
  double predict_seconds() const { return predict_seconds_; }

 private:
  std::vector<PropertyQuery> batch_;  // grow-only flush scratch
  double predict_seconds_ = 0.0;
};

}  // namespace splash

#endif  // SPLASH_EVAL_STREAM_EXECUTOR_H_
