// Copyright 2026 The SPLASH Reproduction Authors.
//
// The pipelined streaming executor: turns the trainer's chronological
// replay loop into an explicit schedule of ops and runs it either serially
// (the determinism reference) or double-buffered on a PipelineThread.
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
// Pipelining (pipeline_depth >= 1, staged-batch predictors only):
//
//   wait(observe op j) ; StageBatch(op j)        <- state hand-off barrier
//   submit(observe op j+1)  ||  Train/PredictStaged(op j)
//
// StageBatch reads streaming state at op j's horizon; the staged compute
// reads only the staged tensors and the model weights (the split-phase
// contract in core/predictor.h), so it is data-race-free against
// ObserveBulk of op j+1 running on the pipeline thread. Each stage runs
// on its one thread. Run() returns only after the in-flight observe
// finished — the epoch-boundary barrier.
//
// Determinism: pipeline_depth = 0 runs per-edge ObserveEdge + fused
// TrainBatch/PredictBatch — bit-identical to the pre-executor trainer.
// Depth >= 1 issues the same computation in the same data-dependency
// order, and every bulk replay is the per-edge loop, so depth 1 is
// bit-identical to depth 0.

#ifndef SPLASH_EVAL_STREAM_EXECUTOR_H_
#define SPLASH_EVAL_STREAM_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/predictor.h"
#include "core/types.h"
#include "datasets/dataset.h"
#include "graph/edge_stream.h"
#include "runtime/pipeline.h"
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

struct StreamExecutorOptions {
  /// 0 = serial reference path (per-edge ObserveEdge, fused batch calls —
  /// bit-identical to the pre-executor trainer). >= 1 = double-buffered:
  /// ObserveBulk of op j+1 overlaps the staged compute of op j (one op in
  /// flight; deeper pipelining would let ingest run past state the compute
  /// stage still reads, so depth is effectively clamped to 1).
  size_t pipeline_depth = 1;
};

class StreamExecutor {
 public:
  explicit StreamExecutor(const StreamExecutorOptions& opts) : opts_(opts) {}

  /// Called after each kPredict flush with the op and its score matrix.
  using PredictSink = std::function<void(const ReplayOp&, const Matrix&)>;

  /// Executes `ops` over (model, stream, queries). `training` mirrors the
  /// trainer's historical mode dance: when true, each kPredict flush is
  /// computed with SetTraining(false) and training mode is restored after.
  /// Falls back to the serial path when the model does not support staged
  /// batches or pipeline_depth == 0.
  void Run(TemporalPredictor* model, const EdgeStream& stream,
           const std::vector<PropertyQuery>& queries,
           const std::vector<ReplayOp>& ops, bool training,
           const PredictSink& on_predict);

  /// Seconds spent staging + scoring kPredict flushes during the last
  /// Run — the "time inside PredictBatch" the serial trainer reports.
  double predict_seconds() const { return predict_seconds_; }

 private:
  void RunSerial(TemporalPredictor* model, const EdgeStream& stream,
                 const std::vector<PropertyQuery>& queries,
                 const std::vector<ReplayOp>& ops, bool training,
                 const PredictSink& on_predict);

  StreamExecutorOptions opts_;
  std::unique_ptr<PipelineThread> pipe_;  // created on first pipelined Run
  std::vector<PropertyQuery> batch_;      // grow-only flush scratch
  double predict_seconds_ = 0.0;
};

}  // namespace splash

#endif  // SPLASH_EVAL_STREAM_EXECUTOR_H_
