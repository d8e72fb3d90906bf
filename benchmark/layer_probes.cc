// Copyright 2026 The SPLASH Reproduction Authors.

#include "benchmark/layer_probes.h"

#include <algorithm>

#include "core/feature_augmentation.h"
#include "core/feature_selection.h"
#include "core/serialize.h"
#include "serve/checkpoint.h"
#include "serve/wal.h"

namespace splash {
namespace bench {

namespace {

/// Times `fn` until `reps` calls ran or `budget_s` elapsed (at least
/// `min_reps`), recording one span per call; returns the median call time
/// in nanoseconds.
template <typename Fn>
double MedianCallNs(const char* name, SpanRecorder* spans, size_t reps,
                    size_t min_reps, double budget_s, uint64_t count, Fn&& fn) {
  std::vector<double> ns;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (size_t i = 0; i < reps && (i < min_reps || NowNs() < deadline); ++i) {
    const int64_t t0 = NowNs();
    fn();
    const int64_t t1 = NowNs();
    ns.push_back(static_cast<double>(t1 - t0));
    if (spans != nullptr) spans->Record(name, 0, t0, t1, count);
  }
  return Median(std::move(ns));
}

}  // namespace

SetupLayerCosts ProbeSetupLayers(const SplashOptions& opts, const Dataset& ds,
                                 const ChronoSplit& split, int reps) {
  std::vector<double> fit_seen, select;
  for (int r = 0; r < reps; ++r) {
    FeatureAugmenter aug(opts.augment);
    int64_t t0 = NowNs();
    aug.FitSeen(ds.stream, split.train_end_time);
    fit_seen.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    FeatureSelectionOptions sel = opts.select;
    sel.k_recent = opts.slim.k_recent;
    t0 = NowNs();
    SelectFeatureProcess(ds, split, &aug, sel);
    select.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return {Median(fit_seen), Median(select)};
}

PredictCosts ProbePredict(const SplashPredictor& model,
                          const std::vector<PropertyQuery>& pool,
                          size_t group, SpanRecorder* spans) {
  PredictCosts c;
  c.group = std::max<size_t>(1, std::min(group, pool.size()));
  SplashQueryScratch scratch;
  std::vector<PropertyQuery> one(pool.begin(), pool.begin() + 1);
  std::vector<PropertyQuery> many(pool.begin(), pool.begin() + c.group);
  model.PredictBatchConst(one, &scratch);  // grow scratch before timing
  model.PredictBatchConst(many, &scratch);
  c.b1_us = MedianCallNs("probe.predict_b1", spans, 2000, 20, 0.3, 1, [&] {
              model.PredictBatchConst(one, &scratch);
            }) * 1e-3;
  c.bg_us = MedianCallNs("probe.predict_bG", spans, 2000, 20, 0.3, c.group,
                         [&] { model.PredictBatchConst(many, &scratch); }) *
            1e-3;
  return c;
}

double ProbePackUs(SplashPredictor* model, SpanRecorder* spans) {
  return MedianCallNs("probe.pack", spans, 200, 5, 0.3, 1,
                      [&] { model->PrepareForPublish(); }) *
         1e-3;
}

DurabilityCosts ProbeDurability(const SplashPredictor& model,
                                const EdgeStream& log,
                                const std::vector<PropertyQuery>& labels,
                                size_t edges_per_batch, size_t rows_per_batch,
                                const std::string& scratch_parent,
                                SpanRecorder* spans) {
  DurabilityCosts c;
  const std::string dir = MakeTempDir(scratch_parent);

  // WAL: append records shaped like the workload's micro-batches, taken
  // from the front of its log and label stream.
  {
    WalWriter wal;
    if (wal.Open(WalSegmentPath(dir, 0), 0, WalFsyncPolicy::kBatch, 8).ok()) {
      const size_t e = std::max<size_t>(1, edges_per_batch);
      WalRecord rec;
      size_t edge = 0, label = 0;
      uint64_t index = 0;
      double total_ns = 0.0;
      const int64_t deadline = NowNs() + 300000000;
      while (index < 512 && edge + e <= log.size() &&
             (index < 16 || NowNs() < deadline)) {
        rec.Clear();
        rec.batch_index = index;
        rec.seq_begin = edge;
        for (size_t i = 0; i < e; ++i) rec.edges.push_back(log[edge++]);
        rec.seq_end = edge;
        rec.wm_time = rec.edges.back().time;
        for (size_t i = 0; i < rows_per_batch && !labels.empty(); ++i) {
          rec.train.push_back(labels[label++ % labels.size()]);
        }
        const int64_t t0 = NowNs();
        const bool ok = wal.Append(rec).ok();
        const int64_t t1 = NowNs();
        if (!ok) break;
        if (spans != nullptr) spans->Record("probe.wal_append", 0, t0, t1, e);
        total_ns += static_cast<double>(t1 - t0);
        ++index;
      }
      wal.Close();
      if (index > 0) c.wal_append_us = total_ns / static_cast<double>(index) * 1e-3;
    }
  }

  ByteWriter blob;
  c.serialize_ms = MedianCallNs("probe.serialize", spans, 3, 3, 0.0, 1, [&] {
                     blob.Clear();
                     model.SerializeState(&blob);
                   }) * 1e-6;

  const std::vector<uint8_t> node_seen(log.num_nodes(), 1);
  uint64_t seq = log.size();
  c.checkpoint_ms =
      MedianCallNs("probe.checkpoint", spans, 3, 3, 0.0, log.size(), [&] {
        WriteCheckpoint(dir, seq++, 0, log.max_time(), log, node_seen,
                        blob.buffer())
            .ok();
      }) * 1e-6;
  RemoveTree(dir);
  return c;
}

}  // namespace bench
}  // namespace splash
