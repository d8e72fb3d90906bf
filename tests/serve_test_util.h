// Copyright 2026 The SPLASH Reproduction Authors.
//
// Helpers shared by the serve test suites: a scratch data_dir, the WAL
// read back as the service's applied micro-batch sequence — the record
// every apply-sequence oracle replays — and SLIM's Adam step count read
// out of predictor state bytes.

#ifndef SPLASH_TESTS_SERVE_TEST_UTIL_H_
#define SPLASH_TESTS_SERVE_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "core/slim.h"
#include "serve/service.h"
#include "serve/wal.h"
#include "tensor/rng.h"

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

/// SLIM's Adam step count in a SplashPredictor::SerializeState blob. The
/// blob ends with SLIM's block (SlimModel::Serialize): the Adam step and
/// train-call counters, then every parameter and its two Adam moments,
/// each as rows, cols and the floats. The block's size follows from the
/// architecture the blob's header records; w1's shape right after the
/// counters checks the offset.
inline uint64_t ReadSlimAdamSteps(const std::vector<uint8_t>& blob) {
  ByteReader header(blob);
  header.U32();  // magic
  header.U32();  // version
  header.U64();  // seed
  header.U32();  // mode
  header.U64();  // augmenter feature_dim
  header.U32();  // selected process
  header.U64();  // input_dim
  EXPECT_EQ(header.U8(), 1u) << "state carries no SLIM model";
  SlimOptions so;
  so.feature_dim = header.U64();
  so.time_dim = header.U64();
  so.hidden_dim = header.U64();
  so.out_dim = header.U64();
  so.k_recent = header.U64();
  Rng rng(1);
  const size_t params = SlimModel(so, &rng).ParamCount();
  const size_t matrices = 3 * SlimTrainState::kNumParams;
  const size_t block = 2 * sizeof(uint64_t) +
                       matrices * 2 * sizeof(uint64_t) +
                       3 * params * sizeof(float);
  if (blob.size() < block) {
    ADD_FAILURE() << "state shorter than its SLIM block";
    return 0;
  }
  ByteReader r(blob.data() + blob.size() - block, block);
  const uint64_t adam_steps = r.U64();
  r.U64();  // train calls
  EXPECT_EQ(r.U64(), so.feature_dim + so.time_dim) << "w1 rows";
  EXPECT_EQ(r.U64(), so.hidden_dim) << "w1 cols";
  return adam_steps;
}

/// The Adam step count of `svc`'s predictor state (quiesced reads only).
inline uint64_t ServiceAdamSteps(const SplashService& svc) {
  ByteWriter w;
  svc.SerializePredictorState(&w);
  return ReadSlimAdamSteps(w.buffer());
}

}  // namespace splash

#endif  // SPLASH_TESTS_SERVE_TEST_UTIL_H_
