// Copyright 2026 The SPLASH Reproduction Authors.
//
// Shared helpers for the table/figure reproduction benches: model zoo
// construction, train+evaluate runners, and table printing. Every bench
// binary prints the rows of one paper table or the series of one figure.
//
// Environment knobs:
//   SPLASH_BENCH_SCALE  — multiplies dataset sizes (default 0.5; the paper's
//                         datasets are 10-100x larger, see DESIGN.md §3).
//   SPLASH_BENCH_EPOCHS — training epochs per model (default 8).

#ifndef SPLASH_BENCH_BENCH_COMMON_H_
#define SPLASH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "core/splash.h"
#include "datasets/registry.h"
#include "eval/trainer.h"

namespace splash::bench {

/// Reads a double knob from the environment.
inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : fallback;
}

/// Dataset scale for bench runs. Rejects non-positive values up front:
/// MakeDataset would error and the benches dereference its result.
inline double BenchScale() {
  const double v = EnvDouble("SPLASH_BENCH_SCALE", 0.5);
  if (v <= 0.0) {
    std::fprintf(stderr, "SPLASH_BENCH_SCALE must be positive, got %g\n", v);
    std::abort();
  }
  return v;
}

/// Training epochs for bench runs. Rejects non-positive values: silently
/// truncating e.g. SPLASH_BENCH_EPOCHS=0.5 to zero epochs would make every
/// table report an untrained model.
inline size_t BenchEpochs() {
  const double v = EnvDouble("SPLASH_BENCH_EPOCHS", 8);
  if (v < 1.0) {
    std::fprintf(stderr,
                 "SPLASH_BENCH_EPOCHS must be a positive integer, got %g\n",
                 v);
    std::abort();
  }
  return static_cast<size_t>(v);
}

/// Common model dimensions used across all bench comparisons so parameter
/// counts are directly comparable.
struct BenchDims {
  size_t feature_dim = 32;
  size_t hidden_dim = 64;
  size_t time_dim = 16;
  size_t k_recent = 10;
};

/// Builds a SPLASH-family predictor.
inline std::unique_ptr<SplashPredictor> MakeSplash(SplashMode mode,
                                                   const BenchDims& dims,
                                                   uint64_t seed = 777) {
  SplashOptions opts;
  opts.mode = mode;
  opts.augment.feature_dim = dims.feature_dim;
  opts.slim.hidden_dim = dims.hidden_dim;
  opts.slim.time_dim = dims.time_dim;
  opts.slim.k_recent = dims.k_recent;
  opts.seed = seed;
  return std::make_unique<SplashPredictor>(opts);
}

/// Builds a baseline predictor by name.
inline std::unique_ptr<TemporalPredictor> MakeBaselineModel(
    const std::string& base, bool random_features, const BenchDims& dims,
    uint64_t seed = 4242) {
  BaselineOptions opts;
  opts.node_feature_dim = dims.feature_dim;
  opts.hidden_dim = dims.hidden_dim;
  opts.time_dim = dims.time_dim;
  opts.k_recent = dims.k_recent;
  opts.seed = seed;
  auto model = MakeBaseline(base, random_features, opts);
  if (!model.ok()) {
    std::fprintf(stderr, "MakeBaselineModel(\"%s\"): %s\n", base.c_str(),
                 model.status().ToString().c_str());
    std::abort();
  }
  return std::move(model).value();
}

/// Result of one (model, dataset) cell.
struct CellResult {
  double metric = 0.0;
  double train_seconds = 0.0;
  double predict_seconds = 0.0;
  size_t num_queries = 0;
  size_t param_count = 0;
};

/// Prepares, fits, and evaluates one model on one dataset.
inline CellResult RunCell(TemporalPredictor* model, const Dataset& ds,
                          size_t epochs, size_t batch_size = 200) {
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);
  CellResult cell;
  const Status st = model->Prepare(ds, split);
  if (!st.ok()) {
    std::fprintf(stderr, "  [%s/%s] prepare failed: %s\n",
                 model->name().c_str(), ds.name.c_str(),
                 st.ToString().c_str());
    return cell;
  }
  TrainerOptions topts;
  topts.epochs = epochs;
  topts.batch_size = batch_size;
  StreamTrainer trainer(topts);
  const FitResult fit = trainer.Fit(model, ds, split);
  const EvalResult eval = trainer.Evaluate(model, ds, split);
  cell.metric = eval.metric;
  cell.train_seconds = fit.train_seconds;
  cell.predict_seconds = eval.predict_seconds;
  cell.num_queries = eval.num_queries;
  cell.param_count = model->ParamCount();
  return cell;
}

/// Prints a separator line of the given width.
inline void PrintRule(size_t width) {
  for (size_t i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace splash::bench

#endif  // SPLASH_BENCH_BENCH_COMMON_H_
