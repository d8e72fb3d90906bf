// Copyright 2026 The SPLASH Reproduction Authors.
//
// Stub left for the system benchmark, which stamps
// ThreadPool::GlobalThreads() into its provenance and matches runs on it.
// There is no thread pool: every stage runs on one thread, so the stamp
// is always 1. Remove this header together with that stamp.

#ifndef SPLASH_RUNTIME_THREAD_POOL_H_
#define SPLASH_RUNTIME_THREAD_POOL_H_

#include <cstddef>

namespace splash {

class ThreadPool {
 public:
  static size_t GlobalThreads() { return 1; }
};

}  // namespace splash

#endif  // SPLASH_RUNTIME_THREAD_POOL_H_
