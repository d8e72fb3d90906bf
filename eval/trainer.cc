// Copyright 2026 The SPLASH Reproduction Authors.

#include "eval/trainer.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "eval/metrics.h"
#include "eval/stream_executor.h"
#include "eval/timing.h"

namespace splash {

namespace {

/// Epochs without a val improvement before early stopping ends a Fit.
constexpr size_t kPatience = 3;

/// Boundary time for "the first `frac` of the edges": the later period
/// starts at the first index whose time reaches the cut edge's time, and
/// the boundary snaps to the timestamp just before it. For distinct
/// timestamps this reproduces the historical quantile boundary exactly;
/// when a tied run straddles the positional cut, the whole run moves into
/// the later period instead of being bisected (a bisected run would score
/// boundary-time queries with their own-time edges already in state).
double BoundaryAtFraction(const EdgeStream& stream, double frac) {
  const size_t n = stream.size();
  if (n == 0) return 0.0;
  const double clamped = std::min(1.0, std::max(0.0, frac));
  // The historical boundary was t[floor(frac*(n-1))] inclusive; the later
  // period therefore starts one past it. Deriving the cut from that index
  // keeps distinct-timestamp boundaries bit-identical to the old quantile
  // for every n, not just when frac*n is integral.
  const size_t cut = static_cast<size_t>(
                         clamped * static_cast<double>(n - 1)) + 1;
  if (cut >= n) return stream.max_time();
  const double* t = stream.time_data();
  const size_t first = static_cast<size_t>(
      std::lower_bound(t, t + n, t[cut]) - t);
  if (first == 0) return stream.min_time() - 1.0;
  return t[first - 1];
}

/// Predict sink appending each flush's scores (grow-only Resize + copy)
/// and labels; `*rows` tracks the fill point. Shared by Fit (val window)
/// and Evaluate (test window).
StreamExecutor::PredictSink MakeScoreSink(const Dataset& ds, Matrix* scores,
                                          std::vector<int>* labels,
                                          size_t* rows) {
  return [&ds, scores, labels, rows](const ReplayOp& op, const Matrix& out) {
    const size_t n = op.query_end - op.query_begin;
    scores->Resize(*rows + n, out.cols());
    std::memcpy(scores->Row(*rows), out.data(), out.size() * sizeof(float));
    *rows += n;
    for (size_t q = op.query_begin; q < op.query_end; ++q) {
      labels->push_back(ds.queries[q].class_label);
    }
  };
}

}  // namespace

ChronoSplit MakeChronoSplit(const EdgeStream& stream, double val_frac,
                            double test_frac) {
  ChronoSplit split;
  split.train_end_time =
      BoundaryAtFraction(stream, 1.0 - val_frac - test_frac);
  split.val_end_time = BoundaryAtFraction(stream, 1.0 - test_frac);
  return split;
}

FitResult StreamTrainer::Fit(TemporalPredictor* model, const Dataset& ds,
                             const ChronoSplit& split) {
  WallTimer timer;
  FitResult result;

  // The schedule depends only on (stream, queries, split, batch size):
  // build it once, replay it every epoch.
  std::vector<ReplayOp> ops;
  BuildFitSchedule(ds, split, opts_.batch_size, &ops);
  StreamExecutor executor;

  size_t epochs_since_best = 0;
  for (size_t epoch = 0; epoch < opts_.epochs; ++epoch) {
    model->SetTraining(true);
    model->ResetState();

    Matrix val_scores;
    std::vector<int> val_labels;
    size_t val_rows = 0;
    executor.Run(model, ds.stream, ds.queries, ops, /*training=*/true,
                 MakeScoreSink(ds, &val_scores, &val_labels, &val_rows));
    ++result.epochs_run;

    const double val_metric =
        val_rows > 0 ? TaskMetric(ds.task, val_scores, val_labels) : 0.0;
    if (epoch == 0 || val_metric > result.best_val_metric) {
      result.best_val_metric = val_metric;
      epochs_since_best = 0;
    } else if (++epochs_since_best >= kPatience &&
               opts_.early_stopping) {
      break;
    }
  }
  model->SetTraining(false);
  result.train_seconds = timer.Seconds();
  return result;
}

EvalResult StreamTrainer::Evaluate(TemporalPredictor* model,
                                   const Dataset& ds,
                                   const ChronoSplit& split) {
  EvalResult result;
  model->SetTraining(false);
  model->ResetState();

  std::vector<ReplayOp> ops;
  BuildEvalSchedule(ds, split, opts_.batch_size, &ops);
  StreamExecutor executor;

  Matrix scores;
  std::vector<int> labels;
  size_t rows = 0;
  executor.Run(model, ds.stream, ds.queries, ops, /*training=*/false,
               MakeScoreSink(ds, &scores, &labels, &rows));
  result.predict_seconds = executor.predict_seconds();

  result.num_queries = rows;
  result.metric = rows > 0 ? TaskMetric(ds.task, scores, labels) : 0.0;
  return result;
}

}  // namespace splash
