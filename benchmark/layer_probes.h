// Copyright 2026 The SPLASH Reproduction Authors.
//
// Post-run layer probes of the traced run: each one times calls into a
// single module's public functions on standalone objects built from the
// workload's own inputs and final state, so every workload reports the same
// layer costs for its own shapes (model width, log length, batch size).

#ifndef SPLASH_BENCHMARK_LAYER_PROBES_H_
#define SPLASH_BENCHMARK_LAYER_PROBES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "benchmark/bench_util.h"
#include "core/splash.h"
#include "datasets/dataset.h"
#include "graph/edge_stream.h"

namespace splash {
namespace bench {

/// core/ set-up layers: FeatureAugmenter::FitSeen and SelectFeatureProcess
/// called directly on a fresh augmenter (seconds, median of `reps`).
struct SetupLayerCosts {
  double fit_seen_s = 0.0;
  double select_s = 0.0;
};
SetupLayerCosts ProbeSetupLayers(const SplashOptions& opts, const Dataset& ds,
                                 const ChronoSplit& split, int reps);

/// Const read path (PredictBatchConst) at batch 1 and batch `group`, median
/// microseconds per call. `pool` supplies the query rows.
struct PredictCosts {
  double b1_us = 0.0;
  double bg_us = 0.0;
  size_t group = 1;
};
PredictCosts ProbePredict(const SplashPredictor& model,
                          const std::vector<PropertyQuery>& pool,
                          size_t group, SpanRecorder* spans);

/// Publish-time repack (PrepareForPublish), median microseconds.
double ProbePackUs(SplashPredictor* model, SpanRecorder* spans);

/// serve/wal and serve/checkpoint at the workload's final state: mean WAL
/// append of a micro-batch record (kBatch fsync, group 8 — the service
/// default), SerializeState of `model`, and WriteCheckpoint of `log`.
struct DurabilityCosts {
  double wal_append_us = 0.0;
  double serialize_ms = 0.0;
  double checkpoint_ms = 0.0;
};
DurabilityCosts ProbeDurability(const SplashPredictor& model,
                                const EdgeStream& log,
                                const std::vector<PropertyQuery>& labels,
                                size_t edges_per_batch, size_t rows_per_batch,
                                const std::string& scratch_parent,
                                SpanRecorder* spans);

}  // namespace bench
}  // namespace splash

#endif  // SPLASH_BENCHMARK_LAYER_PROBES_H_
