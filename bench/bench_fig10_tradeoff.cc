// Reproduces Fig. 10: the trade-off between inference time and AUC (left)
// and between model size and AUC (right) on the Reddit stand-in. Prints one
// row per method with per-query inference latency, parameter count, and AUC,
// plus the headline ratios the paper reports (speedup / size / AUC gain).

#include "bench/bench_common.h"

using namespace splash;
using namespace splash::bench;

int main() {
  const double scale = BenchScale();
  const size_t epochs = BenchEpochs();
  std::printf(
      "=== Fig. 10: inference-time & size vs AUC on reddit-s "
      "(scale=%.2f, epochs=%zu) ===\n\n",
      scale, epochs);

  const Dataset ds = MakeDataset("reddit-s", scale).value();
  BenchDims dims;

  struct Row {
    std::string label;
    std::function<std::unique_ptr<TemporalPredictor>()> make;
  };
  const std::vector<Row> rows = {
      {"JODIE", [&]() { return MakeBaselineModel("jodie", false, dims); }},
      {"JODIE+RF", [&]() { return MakeBaselineModel("jodie", true, dims); }},
      {"DySAT+RF", [&]() { return MakeBaselineModel("dysat", true, dims); }},
      {"TGAT+RF", [&]() { return MakeBaselineModel("tgat", true, dims); }},
      {"TGN+RF", [&]() { return MakeBaselineModel("tgn", true, dims); }},
      {"GraphMixer+RF",
       [&]() { return MakeBaselineModel("graphmixer", true, dims); }},
      {"DyGFormer+RF",
       [&]() { return MakeBaselineModel("dygformer", true, dims); }},
      {"SPLASH", [&]() { return MakeSplash(SplashMode::kAuto, dims); }},
  };

  std::printf("%-16s %12s %12s %8s\n", "method", "us/query", "params",
              "AUC(%)");
  PrintRule(52);

  double splash_us = 0.0, best_other_us = 0.0, splash_auc = 0.0;
  size_t splash_params = 0, best_other_params = 0;
  double best_other_auc = -1.0;
  for (const Row& row : rows) {
    auto model = row.make();
    const CellResult cell = RunCell(model.get(), ds, epochs, 100);
    const double us_per_query =
        cell.num_queries
            ? 1e6 * cell.predict_seconds / static_cast<double>(cell.num_queries)
            : 0.0;
    std::printf("%-16s %12.1f %12zu %8.1f\n", row.label.c_str(), us_per_query,
                cell.param_count, 100.0 * cell.metric);
    std::fflush(stdout);
    if (row.label == "SPLASH") {
      splash_us = us_per_query;
      splash_params = cell.param_count;
      splash_auc = cell.metric;
    } else if (cell.metric > best_other_auc) {
      best_other_auc = cell.metric;
      best_other_us = us_per_query;
      best_other_params = cell.param_count;
    }
  }

  if (splash_us > 0.0 && best_other_auc > 0.0) {
    std::printf(
        "\nSPLASH vs best-performing baseline: %.2fx faster inference, "
        "%.2fx params, %+.1f AUC points.\n",
        best_other_us / splash_us,
        static_cast<double>(splash_params) /
            static_cast<double>(best_other_params),
        100.0 * (splash_auc - best_other_auc));
  }
  std::printf("Expected shape (paper Fig. 10): SPLASH sits on the Pareto "
              "front — fastest/lightest at the best AUC\n(paper: 27.5x faster,"
              " 5.97x fewer params than FreeDyG+RF).\n");
  return 0;
}
