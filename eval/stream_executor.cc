// Copyright 2026 The SPLASH Reproduction Authors.

#include "eval/stream_executor.h"

#include <algorithm>

#include "eval/timing.h"

namespace splash {

namespace {

/// First query index with time > `bound` (queries are sorted by time).
size_t QueryUpperBound(const std::vector<PropertyQuery>& qs, double bound) {
  return static_cast<size_t>(
      std::upper_bound(qs.begin(), qs.end(), bound,
                       [](double b, const PropertyQuery& q) {
                         return b < q.time;
                       }) -
      qs.begin());
}

/// Emits the flush ops of query range [q_begin, q_end): full batches flush
/// right before the first edge (< replay_end) whose time reaches their last
/// query's time — the point where the interleaved loop's batch filled — and
/// the partial remainder is returned for the caller to place after the
/// replay tail. `edge_cursor` advances past each flush point.
void EmitFullBatches(const double* t, size_t replay_end, size_t q_begin,
                     size_t q_end, size_t batch_size,
                     const std::vector<PropertyQuery>& qs,
                     ReplayOp::Flush flush, size_t* edge_cursor,
                     std::vector<ReplayOp>* ops, size_t* partial_begin) {
  size_t qb = q_begin;
  for (; qb + batch_size <= q_end; qb += batch_size) {
    const size_t qe = qb + batch_size;
    const size_t flush_at = static_cast<size_t>(
        std::lower_bound(t + *edge_cursor, t + replay_end,
                         qs[qe - 1].time) -
        t);
    ops->push_back({*edge_cursor, flush_at, qb, qe, flush});
    *edge_cursor = flush_at;
  }
  *partial_begin = qb;
}

}  // namespace

void BuildFitSchedule(const Dataset& ds, const ChronoSplit& split,
                      size_t batch_size, std::vector<ReplayOp>* ops) {
  ops->clear();
  // The historical loop flushed after every query at batch_size 0.
  if (batch_size == 0) batch_size = 1;
  const double* t = ds.stream.time_data();
  const size_t n_edges = ds.stream.size();
  // The epoch replays every edge with time <= val_end (the loop stops at
  // the first later edge).
  const size_t replay_end = static_cast<size_t>(
      std::upper_bound(t, t + n_edges, split.val_end_time) - t);
  const size_t q_train_end = QueryUpperBound(ds.queries, split.train_end_time);
  const size_t q_val_end = QueryUpperBound(ds.queries, split.val_end_time);

  size_t edge_cursor = 0;
  size_t train_partial = 0, val_partial = q_train_end;
  // Queries are sorted by time, so every full train batch fills (and
  // flushes) before the first full val batch does.
  EmitFullBatches(t, replay_end, 0, q_train_end, batch_size, ds.queries,
                  ReplayOp::Flush::kTrain, &edge_cursor, ops, &train_partial);
  EmitFullBatches(t, replay_end, q_train_end, q_val_end, batch_size,
                  ds.queries, ReplayOp::Flush::kPredict, &edge_cursor, ops,
                  &val_partial);
  // Replay tail, then the post-loop partial flushes in their historical
  // order: train first, then val.
  if (edge_cursor < replay_end) {
    ops->push_back({edge_cursor, replay_end, 0, 0, ReplayOp::Flush::kNone});
  }
  if (train_partial < q_train_end) {
    ops->push_back({replay_end, replay_end, train_partial, q_train_end,
                    ReplayOp::Flush::kTrain});
  }
  if (val_partial < q_val_end) {
    ops->push_back({replay_end, replay_end, val_partial, q_val_end,
                    ReplayOp::Flush::kPredict});
  }
}

void BuildEvalSchedule(const Dataset& ds, const ChronoSplit& split,
                       size_t batch_size, std::vector<ReplayOp>* ops) {
  ops->clear();
  if (batch_size == 0) batch_size = 1;
  const double* t = ds.stream.time_data();
  const size_t n_edges = ds.stream.size();
  const size_t q_val_end = QueryUpperBound(ds.queries, split.val_end_time);
  const size_t q_end = ds.queries.size();

  size_t edge_cursor = 0;
  size_t partial = q_val_end;
  EmitFullBatches(t, n_edges, q_val_end, q_end, batch_size, ds.queries,
                  ReplayOp::Flush::kPredict, &edge_cursor, ops, &partial);
  if (edge_cursor < n_edges) {
    ops->push_back({edge_cursor, n_edges, 0, 0, ReplayOp::Flush::kNone});
  }
  if (partial < q_end) {
    ops->push_back(
        {n_edges, n_edges, partial, q_end, ReplayOp::Flush::kPredict});
  }
}

void StreamExecutor::Run(TemporalPredictor* model, const EdgeStream& stream,
                         const std::vector<PropertyQuery>& queries,
                         const std::vector<ReplayOp>& ops, bool training,
                         const PredictSink& on_predict) {
  predict_seconds_ = 0.0;
  for (const ReplayOp& op : ops) {
    model->ObserveBulk(stream, op.edge_begin, op.edge_end);
    if (op.flush == ReplayOp::Flush::kNone) continue;
    WallTimer timer;
    batch_.assign(queries.begin() + op.query_begin,
                  queries.begin() + op.query_end);
    model->StageBatch(batch_);
    if (op.flush == ReplayOp::Flush::kTrain) {
      model->TrainStaged();
      continue;
    }
    if (training) model->SetTraining(false);
    const Matrix out = model->PredictStaged();
    if (training) model->SetTraining(true);
    predict_seconds_ += timer.Seconds();
    on_predict(op, out);
  }
}

}  // namespace splash
