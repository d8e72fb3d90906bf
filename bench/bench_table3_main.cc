// Reproduces Table III: node property prediction performance of SPLASH vs
// baseline TGNNs (with and without random features) across the seven dataset
// stand-ins. Metrics: AUC (anomaly), F1-micro (classification), NDCG@10
// (affinity), in percent.

#include "bench/bench_common.h"

using namespace splash;
using namespace splash::bench;

int main() {
  const double scale = BenchScale();
  const size_t epochs = BenchEpochs();
  std::printf(
      "=== Table III: main results (scale=%.2f, epochs=%zu) ===\n",
      scale, epochs);
  std::printf("metric: AUC / F1-micro / NDCG@10 (in %%)\n\n");

  const std::vector<std::string> datasets = StandardDatasetNames();
  const std::vector<std::string> bases = {"jodie",      "dysat",
                                          "tgat",       "tgn",
                                          "graphmixer", "dygformer"};
  BenchDims dims;

  // Header.
  std::printf("%-16s", "method");
  for (const auto& name : datasets) std::printf(" %12s", name.c_str());
  std::printf("\n");
  PrintRule(16 + 13 * datasets.size());

  std::vector<Dataset> data;
  for (const auto& name : datasets) {
    data.push_back(MakeDataset(name, scale).value());
  }

  auto run_row = [&](const std::string& label,
                     auto&& make_model, bool anomaly_only) {
    std::printf("%-16s", label.c_str());
    std::fflush(stdout);
    for (const Dataset& ds : data) {
      if (anomaly_only && ds.task != TaskType::kAnomalyDetection) {
        std::printf(" %12s", "N/A");
        continue;
      }
      auto model = make_model();
      const CellResult cell = RunCell(model.get(), ds, epochs, 100);
      std::printf(" %12.1f", 100.0 * cell.metric);
      std::fflush(stdout);
    }
    std::printf("\n");
  };

  for (const auto& base : bases) {
    auto plain = [&]() { return MakeBaselineModel(base, false, dims); };
    run_row(MakeBaselineModel(base, false, dims)->name(), plain, false);
  }
  run_row("SLADE", [&]() { return MakeBaselineModel("slade", false, dims); },
          /*anomaly_only=*/true);
  for (const auto& base : bases) {
    auto rf = [&]() { return MakeBaselineModel(base, true, dims); };
    run_row(MakeBaselineModel(base, true, dims)->name(), rf, false);
  }
  run_row("SPLASH", [&]() { return MakeSplash(SplashMode::kAuto, dims); },
          false);

  std::printf("\nExpected shape (paper Table III): baselines without node "
              "features fail on classification/affinity;\n+RF recovers much "
              "of it; SPLASH is best or near-best in every column.\n");
  return 0;
}
