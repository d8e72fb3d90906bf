// Copyright 2026 The SPLASH Reproduction Authors.

#include "core/feature_selection.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "eval/metrics.h"
#include "eval/timing.h"
#include "graph/neighbor_memory.h"
#include "tensor/matrix.h"

namespace splash {

namespace {

constexpr AugmentationProcess kProcesses[3] = {
    AugmentationProcess::kRandom, AugmentationProcess::kPositional,
    AugmentationProcess::kStructural};

constexpr float kRidgeLambda = 0.1f;
/// Probe rows are subsampled to at most this many per split, so selection
/// cost stays bounded on large streams.
constexpr size_t kMaxRowsPerSplit = 4000;
/// Fraction of the validation rows (latest first) the probes are scored
/// on. Shift grows with time, so scoring the late-val window punishes
/// processes whose features go stale (the P-over-R mispick).
constexpr double kLateValFrac = 0.5;
/// Processes whose probe metric is within this margin of the best are
/// tied; ties are broken by the val-period silhouette of the process's
/// node features under the query labels. The probe is a ridge fit on a
/// few hundred subsampled val rows, so ~0.1 of metric is inside its noise
/// band — and the silhouette catches failure modes the probe overrates
/// (e.g. a positional embedding fit on too few train edges probes well on
/// near-train val rows but has collapsed cluster structure: the old
/// P-over-R mispick on gdelt-s at small scale).
constexpr double kTieEpsilon = 0.1;
/// Row cap for the O(n^2) tiebreak silhouette.
constexpr size_t kSilhouetteMaxRows = 512;

/// Standardizes both matrices column-wise with means/stds computed on
/// `train` only. The three processes emit features at wildly different
/// scales (degree encodings are bounded, propagated random rows are not),
/// and a shared ridge lambda penalizes the large-scale process hardest —
/// the root cause of probe mispicks like P over R on gdelt-s. After
/// standardization the probes compete on structure, not scale.
void StandardizeColumns(Matrix* train, Matrix* val) {
  const size_t n = train->rows(), d = train->cols();
  if (n == 0) return;
  for (size_t j = 0; j < d; ++j) {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) mean += (*train)(i, j);
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double c = (*train)(i, j) - mean;
      var += c * c;
    }
    var /= static_cast<double>(n);
    const float m = static_cast<float>(mean);
    const float inv = static_cast<float>(1.0 / std::sqrt(var + 1e-8));
    for (size_t i = 0; i < n; ++i) {
      (*train)(i, j) = ((*train)(i, j) - m) * inv;
    }
    for (size_t i = 0; i < val->rows(); ++i) {
      (*val)(i, j) = ((*val)(i, j) - m) * inv;
    }
  }
}

/// TaskMetric restricted to the given probe rows.
double ScoreRows(TaskType task, const Matrix& scores,
                 const std::vector<int>& yval,
                 const std::vector<size_t>& rows) {
  if (rows.empty()) return 0.0;
  Matrix sub(rows.size(), scores.cols());
  std::vector<int> labels(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(sub.Row(i), scores.Row(rows[i]),
                scores.cols() * sizeof(float));
    labels[i] = yval[rows[i]];
  }
  return TaskMetric(task, sub, labels);
}

/// Silhouette of the val-period *node* features (first `dv` columns of the
/// probe rows) under the query labels, subsampled to `max_rows`.
double ValSilhouette(const Matrix& zval, const std::vector<int>& yval,
                     size_t dv, size_t max_rows) {
  const size_t n = zval.rows();
  if (n < 2) return 0.0;
  const size_t stride = std::max<size_t>(1, n / std::max<size_t>(1, max_rows));
  const size_t rows = (n + stride - 1) / stride;
  Matrix sub(rows, dv);
  std::vector<int> labels(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::memcpy(sub.Row(r), zval.Row(r * stride), dv * sizeof(float));
    labels[r] = std::max(0, yval[r * stride]);
  }
  return SilhouetteScore(sub, labels);
}

}  // namespace

FeatureSelectionResult SelectFeatureProcess(
    const Dataset& ds, const ChronoSplit& split, FeatureAugmenter* augmenter,
    const FeatureSelectionOptions& opts) {
  WallTimer timer;
  FeatureSelectionResult result;

  // Count probe rows per split to pre-size matrices and pick strides.
  size_t n_train = 0, n_val = 0;
  for (const PropertyQuery& q : ds.queries) {
    if (q.time <= split.train_end_time) {
      ++n_train;
    } else if (q.time <= split.val_end_time) {
      ++n_val;
    }
  }
  if (n_train == 0 || n_val == 0) {
    result.seconds = timer.Seconds();
    return result;  // structural fallback: computable for any node
  }
  const size_t train_stride = std::max<size_t>(1, n_train / kMaxRowsPerSplit);
  const size_t val_stride = std::max<size_t>(1, n_val / kMaxRowsPerSplit);

  const size_t dv = augmenter->feature_dim();
  const size_t probe_dim = 2 * dv;  // [node feature || mean neighbor feature]
  const size_t classes = std::max<size_t>(2, ds.num_classes);
  const size_t k = std::max<size_t>(1, opts.k_recent);

  Matrix ztr[3], zval[3];
  for (int p = 0; p < 3; ++p) {
    ztr[p] = Matrix(n_train / train_stride + 1, probe_dim);
    zval[p] = Matrix(n_val / val_stride + 1, probe_dim);
  }
  std::vector<int> ytr, yval;

  augmenter->Reset();
  NeighborMemory memory(k, ds.stream.num_nodes());
  std::vector<NodeId> nbr_ids(k);
  std::vector<double> nbr_times(k);
  std::vector<float> feat(dv);

  size_t rows_tr = 0, rows_val = 0;
  size_t seen_tr = 0, seen_val = 0;
  auto emit_row = [&](const PropertyQuery& q, bool is_train) {
    const size_t row = is_train ? rows_tr : rows_val;
    const size_t count =
        memory.GatherRecent(q.node, nbr_ids.data(), nbr_times.data());
    for (int p = 0; p < 3; ++p) {
      float* out = (is_train ? ztr[p] : zval[p]).Row(row);
      augmenter->WriteFeature(kProcesses[p], q.node, out);
      float* mean = out + dv;
      std::memset(mean, 0, dv * sizeof(float));
      if (count > 0) {
        for (size_t j = 0; j < count; ++j) {
          augmenter->WriteFeature(kProcesses[p], nbr_ids[j], feat.data());
          Axpy(1.0f, feat.data(), mean, dv);
        }
        const float inv = 1.0f / static_cast<float>(count);
        for (size_t t = 0; t < dv; ++t) mean[t] *= inv;
      }
    }
    if (is_train) {
      ytr.push_back(q.class_label);
      ++rows_tr;
    } else {
      yval.push_back(q.class_label);
      ++rows_val;
    }
  };

  // One replay over train+val: answer queries with state-before, then
  // observe the edge (the same protocol the trainer uses).
  size_t qi = 0;
  const size_t n_edges = ds.stream.size();
  for (size_t i = 0; i <= n_edges; ++i) {
    const double horizon =
        i < n_edges ? ds.stream[i].time : split.val_end_time;
    while (qi < ds.queries.size() && ds.queries[qi].time <= horizon) {
      const PropertyQuery& q = ds.queries[qi++];
      if (q.time <= split.train_end_time) {
        if (seen_tr++ % train_stride == 0) emit_row(q, /*is_train=*/true);
      } else if (q.time <= split.val_end_time) {
        if (seen_val++ % val_stride == 0) emit_row(q, /*is_train=*/false);
      }
    }
    if (i == n_edges || ds.stream[i].time > split.val_end_time) break;
    augmenter->ObserveEdge(ds.stream[i]);
    memory.Observe(ds.stream[i]);
  }

  if (rows_tr == 0 || rows_val == 0) {
    result.seconds = timer.Seconds();
    return result;
  }

  // One-hot targets shared by the three probes.
  Matrix targets(rows_tr, classes);
  for (size_t i = 0; i < rows_tr; ++i) {
    const size_t label = std::min<size_t>(ytr[i], classes - 1);
    targets(i, label) = 1.0f;
  }

  // Scoring window: the late-val slice (shift grows with time).
  size_t lo = rows_val - static_cast<size_t>(
                             kLateValFrac * static_cast<double>(rows_val));
  if (lo >= rows_val) lo = 0;
  std::vector<size_t> late_rows;
  for (size_t i = lo; i < rows_val; ++i) late_rows.push_back(i);

  double best = -1.0;
  bool probe_ok[3] = {false, false, false};
  for (int p = 0; p < 3; ++p) {
    ztr[p].Resize(rows_tr, probe_dim);
    zval[p].Resize(rows_val, probe_dim);
    StandardizeColumns(&ztr[p], &zval[p]);
    Matrix w;
    if (!SolveRidge(ztr[p], targets, kRidgeLambda, &w)) continue;
    Matrix scores(rows_val, classes);
    MatMul(zval[p], w, &scores);
    const double metric = ScoreRows(ds.task, scores, yval, late_rows);
    probe_ok[p] = true;
    result.val_score[p] = metric;
    if (metric > best) {
      best = metric;
      result.selected = kProcesses[p];
    }
  }

  // Near-ties between probe metrics are inside the ridge fit's noise; let
  // the val-period cluster structure of the node features decide instead.
  int num_tied = 0;
  for (int p = 0; p < 3; ++p) {
    num_tied += probe_ok[p] && best - result.val_score[p] <= kTieEpsilon;
  }
  if (num_tied > 1) {
    double best_sil = -2.0;
    for (int p = 0; p < 3; ++p) {
      if (!probe_ok[p] || best - result.val_score[p] > kTieEpsilon) continue;
      result.silhouette[p] =
          ValSilhouette(zval[p], yval, dv, kSilhouetteMaxRows);
      if (result.silhouette[p] > best_sil) {
        best_sil = result.silhouette[p];
        result.selected = kProcesses[p];
      }
    }
    result.tie_broken = true;
  }
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace splash
