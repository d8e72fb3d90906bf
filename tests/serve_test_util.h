// Copyright 2026 The SPLASH Reproduction Authors.
//
// Helpers shared by the serve test suites: a scratch data_dir, and the
// WAL read back as the service's applied micro-batch sequence — the
// record every apply-sequence oracle replays.

#ifndef SPLASH_TESTS_SERVE_TEST_UTIL_H_
#define SPLASH_TESTS_SERVE_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "serve/service.h"
#include "serve/wal.h"

namespace splash {

/// RAII temp dir under /tmp; removed recursively on teardown.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/splash_serve_test_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!path_.empty() && path_.rfind("/tmp/", 0) == 0) {
      const std::string cmd = "rm -rf '" + path_ + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Turns `opts` durable in `dir` so the WAL keeps the whole applied
/// micro-batch sequence: no segment is garbage-collected and nothing is
/// fsynced (a test never loses the page cache). Start with RecoverOrStart.
inline void KeepWalHistory(const std::string& dir,
                           SplashServiceOptions* opts) {
  opts->data_dir = dir;
  opts->gc_wal_on_checkpoint = false;
  opts->wal_fsync = WalFsyncPolicy::kNone;
}

/// The applied micro-batch sequence as the WAL recorded it, from batch 0.
/// A read error or a gap fails the calling test.
inline std::vector<WalRecord> WalHistory(const std::string& dir) {
  std::vector<WalRecord> history;
  bool gap = false;
  const Status st = ReadWalHistory(dir, 0, 0, &history, &gap);
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_FALSE(gap) << "WAL history of " << dir << " has a gap";
  return history;
}

}  // namespace splash

#endif  // SPLASH_TESTS_SERVE_TEST_UTIL_H_
