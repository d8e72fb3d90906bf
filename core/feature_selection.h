// Copyright 2026 The SPLASH Reproduction Authors.
//
// SPLASH's automatic feature-process selection (paper Sec. IV-C, App. I):
// instead of training a full SLIM model per candidate process, fit a
// closed-form ridge/linear probe on cheap per-query summaries ([node
// feature || mean of k-recent neighbor features]) for each process, score
// each probe on the late half of the validation period, and keep the
// winner. One stream replay covers all three processes.
//
// The probe's settings (ridge lambda, row caps, the late-val share, the
// tie band) are constants of feature_selection.cc; only the neighbor
// count follows the model.

#ifndef SPLASH_CORE_FEATURE_SELECTION_H_
#define SPLASH_CORE_FEATURE_SELECTION_H_

#include <cstddef>

#include "core/feature_augmentation.h"
#include "core/types.h"
#include "datasets/dataset.h"

namespace splash {

struct FeatureSelectionOptions {
  /// Neighbors averaged into each probe row (the model's k_recent).
  size_t k_recent = 10;
};

struct FeatureSelectionResult {
  AugmentationProcess selected = AugmentationProcess::kStructural;
  double seconds = 0.0;
  /// Validation score per process, indexed by AugmentationProcess value.
  double val_score[3] = {0.0, 0.0, 0.0};
  /// Val-period node-feature silhouette per process; computed only when
  /// the probe metrics tied (0 otherwise).
  double silhouette[3] = {0.0, 0.0, 0.0};
  /// True when the silhouette tiebreak decided the pick.
  bool tie_broken = false;
};

/// Replays the stream through `augmenter` (dynamic state is Reset() first
/// and left at the validation boundary afterwards) and returns the probe
/// winner. Falls back to kStructural when there is nothing to validate on.
FeatureSelectionResult SelectFeatureProcess(
    const Dataset& ds, const ChronoSplit& split, FeatureAugmenter* augmenter,
    const FeatureSelectionOptions& opts);

}  // namespace splash

#endif  // SPLASH_CORE_FEATURE_SELECTION_H_
