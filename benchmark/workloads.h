// Copyright 2026 The SPLASH Reproduction Authors.
//
// The benchmark's workloads. Each builds its inputs from the seed (input
// generation is never timed), measures for the configured run length,
// checks the program's outputs and returns its metrics: the end-to-end set
// when untraced, the per-layer set when traced (benchmark/README.md).

#ifndef SPLASH_BENCHMARK_WORKLOADS_H_
#define SPLASH_BENCHMARK_WORKLOADS_H_

#include "benchmark/bench_util.h"

namespace splash {
namespace bench {

/// `replay`: offline chronological train + evaluate (paper Fig. 11).
RunResult RunReplay(const RunConfig& cfg);

/// `ingest`, `ingest_durable`, `query_wide`: a live SplashService under an
/// open-loop generator, then a closed-loop capacity phase.
RunResult RunServe(const RunConfig& cfg);

}  // namespace bench
}  // namespace splash

#endif  // SPLASH_BENCHMARK_WORKLOADS_H_
