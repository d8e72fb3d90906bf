// Copyright 2026 The SPLASH Reproduction Authors.
//
// Framing edge cases of the durability layer (ISSUE 6, satellite S4):
//   - an empty WAL segment scans clean (header only, zero records);
//   - exactly one record round-trips field-for-field;
//   - a torn final record is detected and truncated at EVERY byte offset
//     of the frame header and at payload offsets (parameterized) — the
//     shape a kill -9 mid-write leaves behind;
//   - a CRC mismatch mid-log truncates at the corruption point and
//     reports kCorrupt (bit rot is distinguished from a torn tail);
//   - ReadWalHistory returns the contiguous history from any cursor across
//     segments, truncates at a torn tail, stops and reports a batch or
//     seq gap or a segment that starts past the history, and returns
//     (never skips) an unreadable segment;
//   - a CRC-valid record that no writer could have logged (sentinel node,
//     non-finite or decreasing time) is corrupt and truncates the scan;
//   - checkpoint atomicity: a crash between temp-write and rename leaves
//     the previous checkpoint loadable; a corrupt newest checkpoint falls
//     back to its predecessor, and so does a CRC-valid one whose seq,
//     watermark or node count contradicts its log; retention keeps
//     kCheckpointsToKeep and every WAL segment a retained checkpoint
//     replays, same-named replacements and bad cursor fields included;
//   - the checkpoint writer streams its pieces, and the file stays
//     byte-identical to the SPLCKP1 payload assembled in one buffer, with
//     the mid-write crash point at exactly payload_len / 2 whichever
//     piece that byte falls in;
//   - Crc32c (hardware when the CPU has it) equals Crc32cPortable on known
//     answers, random buffers, seeds and chains, and every CRC field of a
//     written segment or checkpoint is the portable table's value.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "serve/checkpoint.h"
#include "serve/fault_injection.h"
#include "serve/wal.h"
#include "tests/serve_test_util.h"

namespace splash {
namespace {

void WriteFile(const std::string& path, const std::vector<uint8_t>& buf) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
  std::fclose(f);
}

WalRecord MakeRecord(uint64_t batch, uint64_t begin, size_t n_edges,
                     size_t n_train) {
  WalRecord rec;
  rec.batch_index = batch;
  rec.seq_begin = begin;
  rec.seq_end = begin + n_edges;
  rec.wm_time = 100.0 + static_cast<double>(begin + n_edges);
  for (size_t i = 0; i < n_edges; ++i) {
    rec.edges.push_back(TemporalEdge(static_cast<NodeId>(i),
                                     static_cast<NodeId>(i + 1),
                                     rec.wm_time - 1.0 + 0.001 * i));
  }
  for (size_t i = 0; i < n_train; ++i) {
    rec.train.push_back(PropertyQuery{static_cast<NodeId>(7 + i), rec.wm_time,
                                      static_cast<int>(i % 2)});
  }
  return rec;
}

void ExpectRecordsEqual(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.batch_index, b.batch_index);
  EXPECT_EQ(a.seq_begin, b.seq_begin);
  EXPECT_EQ(a.seq_end, b.seq_end);
  EXPECT_EQ(a.wm_time, b.wm_time);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].src, b.edges[i].src);
    EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
    EXPECT_EQ(a.edges[i].time, b.edges[i].time);
  }
  ASSERT_EQ(a.train.size(), b.train.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].node, b.train[i].node);
    EXPECT_EQ(a.train[i].time, b.train[i].time);
    EXPECT_EQ(a.train[i].class_label, b.train[i].class_label);
  }
}

size_t FrameSizeOf(const WalRecord& rec) {
  ByteWriter w;
  EncodeWalRecord(rec, &w);
  return 8 + w.size();  // frame header + payload
}

TEST(ServeWalTest, EmptySegmentScansClean) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kNone, 8).ok());
  }
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.start_seq, 0u);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.tail, WalTailStatus::kClean);
}

TEST(ServeWalTest, ExactlyOneRecordRoundTrips) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 3);
  const WalRecord rec = MakeRecord(3, 40, 5, 2);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 40, WalFsyncPolicy::kAlways, 1).ok());
    ASSERT_TRUE(w.Append(rec).ok());
    EXPECT_EQ(w.records_appended(), 1u);
    EXPECT_GE(w.fsyncs(), 1u);
  }
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.start_seq, 40u);
  EXPECT_EQ(scan.tail, WalTailStatus::kClean);
  ASSERT_EQ(scan.records.size(), 1u);
  ExpectRecordsEqual(scan.records[0], rec);
}

TEST(ServeWalTest, TrainOnlyAndEmptyRecordsRoundTrip) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  const WalRecord train_only = MakeRecord(0, 10, 0, 3);
  const WalRecord empty = MakeRecord(1, 10, 0, 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 10, WalFsyncPolicy::kBatch, 2).ok());
    ASSERT_TRUE(w.Append(train_only).ok());
    ASSERT_TRUE(w.Append(empty).ok());
  }
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  ASSERT_EQ(scan.records.size(), 2u);
  ExpectRecordsEqual(scan.records[0], train_only);
  ExpectRecordsEqual(scan.records[1], empty);
}

/// The kill -9 shape: the final record's frame reached the file only up to
/// byte `cut`. Every cut inside the frame header (8 bytes) and a sweep of
/// payload offsets must scan as kTorn with exactly the prior records kept.
class ServeWalTornTailTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ServeWalTornTailTest, TornFinalRecordTruncatedNeverApplied) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  const WalRecord first = MakeRecord(0, 0, 4, 1);
  const WalRecord last = MakeRecord(1, 4, 3, 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kNone, 8).ok());
    ASSERT_TRUE(w.Append(first).ok());
    ASSERT_TRUE(w.Append(last).ok());
  }
  std::vector<uint8_t> buf = ReadFile(path);
  const size_t last_frame = FrameSizeOf(last);
  ASSERT_GT(buf.size(), last_frame);
  const size_t cut = GetParam();
  ASSERT_LT(cut, last_frame);
  buf.resize(buf.size() - last_frame + cut);
  WriteFile(path, buf);

  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.header_ok);
  // cut == 0: no byte of the final frame reached disk — that IS the clean
  // one-record log. Any strict prefix of the frame is a torn tail.
  EXPECT_EQ(scan.tail,
            cut == 0 ? WalTailStatus::kClean : WalTailStatus::kTorn)
      << "cut=" << cut;
  ASSERT_EQ(scan.records.size(), 1u) << "cut=" << cut;
  ExpectRecordsEqual(scan.records[0], first);
  EXPECT_EQ(scan.valid_bytes, buf.size() - cut);
}

INSTANTIATE_TEST_SUITE_P(
    EveryFrameHeaderByte, ServeWalTornTailTest,
    ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u,  // header offsets
                      8u, 9u, 17u, 30u, 45u));         // payload offsets

TEST(ServeWalTest, CrcMismatchMidLogTruncatesAtCorruption) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  const WalRecord r0 = MakeRecord(0, 0, 3, 0);
  const WalRecord r1 = MakeRecord(1, 3, 3, 1);
  const WalRecord r2 = MakeRecord(2, 6, 3, 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kNone, 8).ok());
    ASSERT_TRUE(w.Append(r0).ok());
    ASSERT_TRUE(w.Append(r1).ok());
    ASSERT_TRUE(w.Append(r2).ok());
  }
  std::vector<uint8_t> buf = ReadFile(path);
  // Flip one payload bit inside the middle record (past its frame header).
  const size_t r0_end = 20 + FrameSizeOf(r0);  // segment header = 20 bytes
  buf[r0_end + 8 + 5] ^= 0x10;
  WriteFile(path, buf);

  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.tail, WalTailStatus::kCorrupt);
  ASSERT_EQ(scan.records.size(), 1u);  // r1 AND r2 are gone: prefix only
  ExpectRecordsEqual(scan.records[0], r0);
}

TEST(ServeWalTest, LengthBombInFrameHeaderIsCorruptNotCrash) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  const WalRecord r0 = MakeRecord(0, 0, 2, 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kNone, 8).ok());
    ASSERT_TRUE(w.Append(r0).ok());
  }
  std::vector<uint8_t> buf = ReadFile(path);
  buf[20 + 3] = 0xFF;  // frame length's top byte -> > kMaxRecordBytes
  WriteFile(path, buf);
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.tail, WalTailStatus::kCorrupt);
}

TEST(ServeWalTest, CorruptSegmentHeaderYieldsNoRecords) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kNone, 8).ok());
    ASSERT_TRUE(w.Append(MakeRecord(0, 0, 2, 0)).ok());
  }
  std::vector<uint8_t> buf = ReadFile(path);
  std::vector<uint8_t> orig = buf;
  buf[10] ^= 0x01;  // start_seq byte: header CRC must catch it
  WriteFile(path, buf);
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_FALSE(scan.header_ok);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.tail, WalTailStatus::kCorrupt);

  // A header shorter than its fixed size is torn, not corrupt.
  orig.resize(11);
  WriteFile(path, orig);
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_FALSE(scan.header_ok);
  EXPECT_EQ(scan.tail, WalTailStatus::kTorn);
}

/// A record the service never logs: it survives the CRC (WalWriter frames
/// whatever it is given) but breaks one invariant of post-clamp batches.
/// The scan must call it corrupt and keep only the prefix before it.
class ServeWalBadRecordTest : public ::testing::TestWithParam<int> {};

TEST_P(ServeWalBadRecordTest, CrcValidButMalformedRecordIsCorrupt) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  const WalRecord r0 = MakeRecord(0, 0, 3, 1);
  WalRecord bad = MakeRecord(1, 3, 3, 2);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  switch (GetParam()) {
    case 0: bad.edges[1].src = kInvalidNode; break;
    case 1: bad.edges[2].dst = kInvalidNode; break;
    case 2: bad.edges[0].time = kNan; break;
    case 3: bad.edges[2].time = kInf; break;
    case 4: bad.edges[2].time = bad.edges[1].time - 0.5; break;
    case 5: bad.train[1].node = kInvalidNode; break;
    case 6: bad.train[0].time = kNan; break;
    case 7: bad.train[0].time = -kInf; break;
  }
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kNone, 8).ok());
    ASSERT_TRUE(w.Append(r0).ok());
    ASSERT_TRUE(w.Append(bad).ok());
    ASSERT_TRUE(w.Append(MakeRecord(2, 6, 2, 0)).ok());
  }
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.tail, WalTailStatus::kCorrupt);
  ASSERT_EQ(scan.records.size(), 1u);
  ExpectRecordsEqual(scan.records[0], r0);
  EXPECT_EQ(scan.valid_bytes, 20 + FrameSizeOf(r0));

  std::vector<WalRecord> history;
  bool gap = true;
  ASSERT_TRUE(ReadWalHistory(dir.path(), 0, 0, &history, &gap).ok());
  EXPECT_FALSE(gap);
  ASSERT_EQ(history.size(), 1u);
  ExpectRecordsEqual(history[0], r0);
}

INSTANTIATE_TEST_SUITE_P(EveryEdgeAndTrainInvariant, ServeWalBadRecordTest,
                         ::testing::Range(0, 8));

TEST(ServeWalTest, ListSegmentsSortsByStartIndex) {
  TempDir dir;
  for (const uint64_t idx : {30u, 0u, 12u}) {
    WalWriter w;
    ASSERT_TRUE(
        w.Open(WalSegmentPath(dir.path(), idx), idx, WalFsyncPolicy::kNone, 8)
            .ok());
  }
  const auto segs = ListWalSegments(dir.path());
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].index, 0u);
  EXPECT_EQ(segs[1].index, 12u);
  EXPECT_EQ(segs[2].index, 30u);
}

// ---------------------------------------------------------------------------
// ReadWalHistory: the one contiguous-history walk (recovery, the crash
// harness and the oracles all read through it).
// ---------------------------------------------------------------------------

TEST(ServeWalTest, ReadWalHistoryWalksTheContiguousHistory) {
  TempDir dir;
  auto write_segment = [&dir](uint64_t start,
                              const std::vector<WalRecord>& recs) {
    WalWriter w;
    ASSERT_TRUE(w.Open(WalSegmentPath(dir.path(), start), 0,
                       WalFsyncPolicy::kNone, 8)
                    .ok());
    for (const WalRecord& rec : recs) ASSERT_TRUE(w.Append(rec).ok());
  };
  // Batches 0-2 (batch 2 train-only) in one segment, 3-4 in the next.
  write_segment(0, {MakeRecord(0, 0, 3, 1), MakeRecord(1, 3, 2, 0),
                    MakeRecord(2, 5, 0, 2)});
  write_segment(3, {MakeRecord(3, 5, 4, 1), MakeRecord(4, 9, 1, 0)});

  // Each input: the cursor to read from, and the batch indices it must
  // return (contiguous from `first`) plus whether it reports a gap.
  auto expect_history = [&dir](uint64_t from_batch, uint64_t from_seq,
                               uint64_t first, size_t n, bool gap,
                               const char* what) {
    std::vector<WalRecord> out;
    bool got_gap = !gap;
    const Status st =
        ReadWalHistory(dir.path(), from_batch, from_seq, &out, &got_gap);
    ASSERT_TRUE(st.ok()) << what << ": " << st.message();
    EXPECT_EQ(got_gap, gap) << what;
    ASSERT_EQ(out.size(), n) << what;
    for (size_t i = 0; i < n; ++i) {
      ExpectRecordsEqual(out[i], MakeRecord(first + i, out[i].seq_begin,
                                            out[i].edges.size(),
                                            out[i].train.size()));
      if (i > 0) {
        EXPECT_EQ(out[i].seq_begin, out[i - 1].seq_end) << what;
      }
    }
  };
  expect_history(0, 0, 0, 5, false, "full history across two segments");
  expect_history(2, 5, 2, 3, false, "from a checkpoint cursor");
  expect_history(5, 10, 5, 0, false, "cursor past the end");

  // A torn tail in the last segment truncates the history, no gap.
  {
    const std::string last = WalSegmentPath(dir.path(), 3);
    WalWriter w;
    ASSERT_TRUE(w.Open(last, 0, WalFsyncPolicy::kNone, 8).ok());
    ASSERT_TRUE(w.Append(MakeRecord(3, 5, 4, 1)).ok());
    ASSERT_TRUE(w.Append(MakeRecord(4, 9, 1, 0)).ok());
    ASSERT_TRUE(w.Append(MakeRecord(5, 10, 6, 0)).ok());
    w.Close();
    std::vector<uint8_t> buf = ReadFile(last);
    buf.resize(buf.size() - 5);
    WriteFile(last, buf);
  }
  expect_history(0, 0, 0, 5, false, "torn tail in the last segment");

  // A seq gap stops the walk at the last contiguous batch.
  write_segment(5, {MakeRecord(5, 11, 2, 0)});
  expect_history(0, 0, 0, 5, true, "seq gap");
  // So does a batch-index gap (batch 5 missing, batch 6 continues seq).
  write_segment(5, {MakeRecord(6, 10, 2, 0)});
  expect_history(0, 0, 0, 5, true, "batch-index gap");
  expect_history(2, 5, 2, 3, true, "gap past a checkpoint cursor");

  // A segment that cannot be read at all is an error, not a skip.
  const std::string unreadable = WalSegmentPath(dir.path(), 5);
  ASSERT_EQ(::unlink(unreadable.c_str()), 0);
  ASSERT_EQ(::mkdir(unreadable.c_str(), 0755), 0);
  std::vector<WalRecord> out;
  bool gap = false;
  EXPECT_FALSE(ReadWalHistory(dir.path(), 0, 0, &out, &gap).ok());
  ASSERT_EQ(::rmdir(unreadable.c_str()), 0);

  // A segment names the batch index of its first record, so one that
  // starts past the next batch the walk needs shows lost history even
  // with no record to compare: the shape a fallback checkpoint meets when
  // the segment it replays from is gone. An empty segment at exactly the
  // cursor is the clean-stop shape and no gap.
  write_segment(5, {});
  expect_history(5, 10, 5, 0, false, "empty segment at the cursor");
  expect_history(0, 0, 0, 5, false, "history up to an empty segment");
  ASSERT_EQ(::unlink(WalSegmentPath(dir.path(), 5).c_str()), 0);
  write_segment(7, {});
  expect_history(5, 10, 5, 0, true, "empty segment past the cursor");
  expect_history(0, 0, 0, 5, true, "empty segment past the history");
  expect_history(2, 5, 2, 3, true, "empty segment past a cursor's tail");
}

// ---------------------------------------------------------------------------
// Checkpoint atomicity
// ---------------------------------------------------------------------------

EdgeStream MakeLog(size_t n) {
  EdgeStream log;
  log.EnsureNodeCapacity(n + 2);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(log.Append(TemporalEdge(static_cast<NodeId>(i),
                                        static_cast<NodeId>(i + 1),
                                        static_cast<double>(i)))
                    .ok());
  }
  return log;
}

TEST(ServeCheckpointTest, RoundTripAndNewestWins) {
  TempDir dir;
  const std::vector<uint8_t> seen = {1, 0, 1};
  const std::vector<uint8_t> blob2 = {1, 2, 3, 4};
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 5, 2, 4.0, MakeLog(5), seen, {9, 8}).ok());
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 9, 4, 8.0, MakeLog(9), seen, blob2).ok());

  CheckpointData data;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 9u);
  EXPECT_EQ(data.batches_applied, 4u);
  EXPECT_EQ(data.wm_time, 8.0);
  ASSERT_EQ(data.log.size(), 9u);
  EXPECT_EQ(data.log[3].src, 3u);
  EXPECT_EQ(data.node_seen, seen);
  EXPECT_EQ(data.predictor_state, blob2);
}

TEST(ServeCheckpointTest, CrashBetweenTempWriteAndRenameKeepsPrevious) {
  TempDir dir;
  const std::vector<uint8_t> seen = {1};
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 5, 2, 4.0, MakeLog(5), seen, {9}).ok());
  // The crash shape: the NEXT checkpoint's temp file exists (even fully
  // written) but was never renamed. The loader must ignore it entirely.
  const std::string orphan = CheckpointPath(dir.path(), 9) + ".tmp";
  WriteFile(orphan, std::vector<uint8_t>{0xDE, 0xAD, 0xBE, 0xEF});

  CheckpointData data;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 5u);
}

TEST(ServeCheckpointTest, CorruptOrTornNewestFallsBackToPredecessor) {
  TempDir dir;
  const std::vector<uint8_t> seen = {1};
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 5, 2, 4.0, MakeLog(5), seen, {9}).ok());
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 9, 4, 8.0, MakeLog(9), seen, {1}).ok());

  // Bit-flip the newest: CRC rejects it, the previous one loads.
  const std::string newest = CheckpointPath(dir.path(), 9);
  std::vector<uint8_t> orig = ReadFile(newest);
  ASSERT_FALSE(orig.empty());
  std::vector<uint8_t> buf = orig;
  buf[buf.size() / 2] ^= 0x40;
  WriteFile(newest, buf);
  CheckpointData data;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 5u);

  // Truncate the newest instead (torn): same fallback.
  buf = orig;
  buf.resize(buf.size() - 7);
  WriteFile(newest, buf);
  found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 5u);

  // Both gone: found=false with an OK status (recovery starts fresh).
  ASSERT_EQ(::unlink(newest.c_str()), 0);
  ASSERT_EQ(::unlink(CheckpointPath(dir.path(), 5).c_str()), 0);
  found = true;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  EXPECT_FALSE(found);
}

TEST(ServeCheckpointTest, GcKeepsNewestTwo) {
  TempDir dir;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    // MakeLog(seq)'s last edge has time seq - 1: the consistent watermark.
    ASSERT_TRUE(WriteCheckpoint(dir.path(), seq, seq,
                                static_cast<double>(seq - 1), MakeLog(seq),
                                {1}, {static_cast<uint8_t>(seq)})
                    .ok());
  }
  size_t kept = 0;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    struct stat sb;
    if (::stat(CheckpointPath(dir.path(), seq).c_str(), &sb) == 0) ++kept;
  }
  EXPECT_EQ(kept, kCheckpointsToKeep);
  CheckpointData data;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 5u);
}

/// Every WAL segment in `dir`, by start index.
std::vector<uint64_t> SegmentIndices(const std::string& dir) {
  std::vector<uint64_t> out;
  for (const DataFile& seg : ListWalSegments(dir)) out.push_back(seg.index);
  return out;
}

// The one retention step: after each checkpoint, the newest two
// checkpoints stay, and so does every WAL segment the older of them
// replays forward from, read from the files left in the dir — also when a
// checkpoint replaced an earlier one of the same edge count, and whatever
// a retained file's cursor field says.
TEST(ServeCheckpointTest, RetentionKeepsTheWalEveryRetainedCheckpointReplays) {
  TempDir dir;
  auto segment = [&dir](uint64_t start) {
    WalWriter w;
    ASSERT_TRUE(w.Open(WalSegmentPath(dir.path(), start), 0,
                       WalFsyncPolicy::kNone, 8)
                    .ok());
  };
  auto checkpoint = [&dir](uint64_t seq, uint64_t cursor, bool gc_wal) {
    ASSERT_TRUE(WriteCheckpoint(dir.path(), seq, cursor,
                                static_cast<double>(seq - 1), MakeLog(seq),
                                {1}, {static_cast<uint8_t>(cursor)}, gc_wal)
                    .ok());
  };
  auto set_cursor = [&dir](uint64_t seq, uint64_t cursor) {
    const std::string path = CheckpointPath(dir.path(), seq);
    std::vector<uint8_t> buf = ReadFile(path);
    ASSERT_GE(buf.size(), 36u);
    for (int i = 0; i < 8; ++i) {
      buf[28 + i] = static_cast<uint8_t>(cursor >> (8 * i));  // payload 8
    }
    WriteFile(path, buf);
  };
  using Indices = std::vector<uint64_t>;

  for (const uint64_t start : {0u, 4u, 8u}) segment(start);
  checkpoint(3, 4, /*gc_wal=*/false);
  EXPECT_EQ(SegmentIndices(dir.path()), (Indices{0, 4, 8}))
      << "no WAL collected without gc_wal";
  checkpoint(5, 4, true);
  EXPECT_EQ(SegmentIndices(dir.path()), (Indices{4, 8}));
  checkpoint(9, 8, true);
  EXPECT_EQ(SegmentIndices(dir.path()), (Indices{4, 8}))
      << "the fallback (cursor 4) replays from segment 4";
  // Train-only batches: a checkpoint at the same edge count replaces 9.
  // The fallback is still 5, and it still replays from segment 4.
  segment(10);
  checkpoint(9, 10, true);
  EXPECT_EQ(SegmentIndices(dir.path()), (Indices{4, 8, 10}));
  segment(12);
  checkpoint(11, 12, true);
  struct stat sb;
  EXPECT_NE(::stat(CheckpointPath(dir.path(), 5).c_str(), &sb), 0);
  EXPECT_EQ(SegmentIndices(dir.path()), (Indices{10, 12}));

  // A retained cursor that reads too small keeps more WAL; one that reads
  // too large cannot take the segment the newest checkpoint replays.
  set_cursor(11, 0);
  segment(14);
  checkpoint(13, 14, true);
  EXPECT_EQ(SegmentIndices(dir.path()), (Indices{10, 12, 14}));
  set_cursor(13, ~uint64_t{0});
  segment(16);
  checkpoint(15, 14, true);
  EXPECT_EQ(SegmentIndices(dir.path()), (Indices{14, 16}))
      << "the newest checkpoint (cursor 14) replays from segment 14";
}

/// Rewrites a checkpoint's header CRC (bytes 16-19) over its payload with
/// the portable table, so an edited payload is CRC-valid again.
void ResealCheckpoint(std::vector<uint8_t>* buf) {
  const uint32_t crc = Crc32cPortable(buf->data() + 20, buf->size() - 20);
  for (int i = 0; i < 4; ++i) {
    (*buf)[16 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

TEST(ServeCheckpointTest, SeqPastTheLogIsNotLoaded) {
  TempDir dir;
  // The writer stays permissive (probes write seq past the log to get
  // distinct files); the loader refuses what Boot would misread.
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 12, 4, 8.0, MakeLog(9), {1}, {1}).ok());
  CheckpointData data;
  bool found = true;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  EXPECT_FALSE(found);

  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 5, 2, 4.0, MakeLog(5), {1}, {9}).ok());
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 5u);
}

TEST(ServeCheckpointTest, CrcValidInconsistentNewestFallsBackToPredecessor) {
  TempDir dir;
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 5, 2, 4.0, MakeLog(5), {1}, {9}).ok());
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 9, 4, 8.0, MakeLog(9), {1}, {1}).ok());
  const std::string newest = CheckpointPath(dir.path(), 9);
  const std::vector<uint8_t> orig = ReadFile(newest);
  ASSERT_GT(orig.size(), 20u + 40u);

  // Payload offsets: seq 0, wm_time 16, num_nodes 32 (see WriteCheckpoint).
  struct Edit {
    size_t offset;
    uint64_t value;
    const char* what;
  };
  uint64_t wm_bits;
  const double wm = 7.5;  // MakeLog(9)'s last edge is at 8.0
  std::memcpy(&wm_bits, &wm, sizeof(wm_bits));
  const Edit edits[] = {{0, 10, "seq != log size"},
                        {16, wm_bits, "wm_time != last edge time"},
                        {32, 9, "num_nodes <= largest endpoint (9)"}};
  for (const Edit& edit : edits) {
    std::vector<uint8_t> buf = orig;
    for (int i = 0; i < 8; ++i) {
      buf[20 + edit.offset + i] = static_cast<uint8_t>(edit.value >> (8 * i));
    }
    ResealCheckpoint(&buf);
    WriteFile(newest, buf);
    CheckpointData data;
    bool found = false;
    ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
    ASSERT_TRUE(found) << edit.what;
    EXPECT_EQ(data.seq, 5u) << edit.what;
  }

  // The untouched file, resealed, still loads: only the edits reject it.
  std::vector<uint8_t> buf = orig;
  ResealCheckpoint(&buf);
  WriteFile(newest, buf);
  CheckpointData data;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 9u);
}

// ---------------------------------------------------------------------------
// Checkpoint format pin: the streamed writer against the assembled payload
// ---------------------------------------------------------------------------

/// The SPLCKP1 file as the format defines it, assembled in one buffer the
/// way the writer did before it streamed: header, then the payload.
std::vector<uint8_t> ReferenceCheckpointFile(uint64_t seq, uint64_t batches,
                                             double wm_time,
                                             const EdgeStream& log,
                                             const std::vector<uint8_t>& seen,
                                             const std::vector<uint8_t>& blob) {
  ByteWriter payload;
  payload.U64(seq);
  payload.U64(batches);
  payload.F64(wm_time);
  payload.U64(log.size());
  payload.U64(log.num_nodes());
  payload.Bytes(log.src_data(), log.size() * sizeof(NodeId));
  payload.Bytes(log.dst_data(), log.size() * sizeof(NodeId));
  payload.Bytes(log.time_data(), log.size() * sizeof(double));
  payload.U8Vec(seen);
  payload.U8Vec(blob);
  ByteWriter file;
  file.Bytes("SPLCKP1\n", 8);
  file.U64(payload.size());
  file.U32(Crc32cPortable(payload.buffer().data(), payload.size()));
  file.Bytes(payload.buffer().data(), payload.size());
  return file.buffer();
}

/// One file shape. `split_piece` names the payload piece holding byte
/// payload_len / 2, where the writer's mid-write crash point sits.
struct CheckpointShape {
  const char* split_piece;
  size_t n_edges;
  size_t seen_bytes;
  size_t blob_bytes;
};

/// The payload piece byte `off` falls in. node_seen and the blob each
/// count with their u64 length.
std::string PayloadPieceAt(const CheckpointShape& c, size_t off) {
  const size_t n = c.n_edges;
  const size_t ends[] = {40, 40 + 4 * n, 40 + 8 * n, 40 + 16 * n,
                         48 + 16 * n + c.seen_bytes,
                         56 + 16 * n + c.seen_bytes + c.blob_bytes};
  const char* names[] = {"meta", "src", "dst", "time", "node_seen", "blob"};
  for (size_t i = 0; i < 6; ++i) {
    if (off < ends[i]) return names[i];
  }
  return "past the end";
}

void PrintTo(const CheckpointShape& c, std::ostream* os) {
  *os << c.n_edges << " edges, " << c.seen_bytes << " seen bytes, "
      << c.blob_bytes << " blob bytes";
}

std::vector<uint8_t> PatternBytes(size_t n, uint8_t salt) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(i * 31 + salt);
  return v;
}

class CheckpointFormatTest : public ::testing::TestWithParam<CheckpointShape> {
};

TEST_P(CheckpointFormatTest, StreamedFileEqualsAssembledPayload) {
  const CheckpointShape c = GetParam();
  const EdgeStream log = MakeLog(c.n_edges);
  const std::vector<uint8_t> seen = PatternBytes(c.seen_bytes, 3);
  const std::vector<uint8_t> blob = PatternBytes(c.blob_bytes, 7);
  const uint64_t seq = c.n_edges;
  const double wm = log.max_time();
  const std::vector<uint8_t> want =
      ReferenceCheckpointFile(seq, 11, wm, log, seen, blob);
  const size_t payload_len = want.size() - 20;
  ASSERT_EQ(PayloadPieceAt(c, payload_len / 2), c.split_piece);

  TempDir dir;
  ASSERT_TRUE(WriteCheckpoint(dir.path(), seq, 11, wm, log, seen, blob).ok());
  const std::vector<uint8_t> got = ReadFile(CheckpointPath(dir.path(), seq));
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0);

  CheckpointData data;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, seq);
  EXPECT_EQ(data.batches_applied, 11u);
  EXPECT_EQ(data.wm_time, wm);
  EXPECT_EQ(data.log.num_nodes(), log.num_nodes());
  ASSERT_EQ(data.log.size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(data.log[i].src, log[i].src);
    EXPECT_EQ(data.log[i].dst, log[i].dst);
    EXPECT_EQ(data.log[i].time, log[i].time);
  }
  EXPECT_EQ(data.node_seen, seen);
  EXPECT_EQ(data.predictor_state, blob);

#if defined(SPLASH_FAULT_INJECTION)
  // The mid-write crash point fires after the header and exactly
  // payload_len / 2 payload bytes: the torn temp file is that prefix.
  TempDir torn_dir;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ArmCrashPoint(CrashPoint::kCheckpointMidWrite, 1);
    (void)WriteCheckpoint(torn_dir.path(), seq, 11, wm, log, seen, blob);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kCrashExitCode);
  const std::vector<uint8_t> torn =
      ReadFile(CheckpointPath(torn_dir.path(), seq) + ".tmp");
  ASSERT_EQ(torn.size(), 20 + payload_len / 2);
  EXPECT_EQ(std::memcmp(torn.data(), want.data(), torn.size()), 0);
#endif
}

INSTANTIATE_TEST_SUITE_P(
    SplitInEveryPiece, CheckpointFormatTest,
    ::testing::Values(CheckpointShape{"meta", 0, 0, 0},
                      CheckpointShape{"meta", 1, 0, 0},
                      CheckpointShape{"src", 1, 0, 8},  // split at src[0]
                      CheckpointShape{"src", 1, 4, 8},
                      CheckpointShape{"dst", 100, 3, 5},
                      CheckpointShape{"time", 100, 500, 500},
                      CheckpointShape{"node_seen", 10, 1000, 100},
                      CheckpointShape{"blob", 10, 10, 1000}),
    [](const ::testing::TestParamInfo<CheckpointShape>& info) {
      return std::string(info.param.split_piece) + "_" +
             std::to_string(info.param.n_edges) + "_edges_" +
             std::to_string(info.index);
    });

// ---------------------------------------------------------------------------
// CRC32C: the dispatched body against the portable table
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswers) {
  std::vector<uint8_t> zeros(32, 0x00);
  std::vector<uint8_t> ones(32, 0xFF);
  std::vector<uint8_t> up(32);
  std::vector<uint8_t> down(32);
  for (size_t i = 0; i < 32; ++i) {
    up[i] = static_cast<uint8_t>(i);
    down[i] = static_cast<uint8_t>(31 - i);
  }
  const struct {
    const void* data;
    size_t n;
    uint32_t want;
  } cases[] = {{"123456789", 9, 0xE3069283u},
               {zeros.data(), 32, 0x8A9136AAu},
               {ones.data(), 32, 0x62A8AB43u},
               {up.data(), 32, 0x46DD794Eu},
               {down.data(), 32, 0x113FDB5Cu}};
  for (const auto& c : cases) {
    EXPECT_EQ(Crc32c(c.data, c.n), c.want);
    EXPECT_EQ(Crc32cPortable(c.data, c.n), c.want);
  }
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32cPortable(nullptr, 0), 0u);
}

TEST(Crc32cTest, MatchesPortableOnRandomBuffersSeedsAndChains) {
  std::mt19937_64 rng(17);
  std::vector<uint8_t> buf(300 + 8);
  for (int trial = 0; trial < 4000; ++trial) {
    for (uint8_t& b : buf) b = static_cast<uint8_t>(rng());
    const size_t n = static_cast<size_t>(rng() % 301);
    const size_t off = static_cast<size_t>(rng() % 8);
    const uint8_t* p = buf.data() + off;
    const uint32_t seed = static_cast<uint32_t>(rng());
    ASSERT_EQ(Crc32c(p, n), Crc32cPortable(p, n)) << n << "@" << off;
    ASSERT_EQ(Crc32c(p, n, seed), Crc32cPortable(p, n, seed))
        << n << "@" << off;
    // Split-and-chain: the CRC of the prefix seeds the suffix.
    const size_t cut = static_cast<size_t>(rng() % (n + 1));
    ASSERT_EQ(Crc32c(p + cut, n - cut, Crc32c(p, cut)), Crc32cPortable(p, n))
        << n << "@" << off << " cut " << cut;
  }

  std::vector<uint8_t> big((1u << 20) + 5);
  for (uint8_t& b : big) b = static_cast<uint8_t>(rng());
  EXPECT_EQ(Crc32c(big.data() + 1, big.size() - 1),
            Crc32cPortable(big.data() + 1, big.size() - 1));
}

TEST(Crc32cTest, WrittenFilesCarryThePortableChecksums) {
  TempDir dir;
  const std::string wal_path = WalSegmentPath(dir.path(), 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(wal_path, 0, WalFsyncPolicy::kNone, 8).ok());
    ASSERT_TRUE(w.Append(MakeRecord(0, 0, 37, 3)).ok());
    ASSERT_TRUE(w.Append(MakeRecord(1, 37, 0, 1)).ok());
    ASSERT_TRUE(w.Append(MakeRecord(2, 37, 250, 0)).ok());
  }
  const std::vector<uint8_t> wal = ReadFile(wal_path);
  ASSERT_GT(wal.size(), 20u);
  auto le32 = [](const uint8_t* p) { return ByteReader(p, 4).U32(); };
  EXPECT_EQ(le32(&wal[16]), Crc32cPortable(&wal[8], 8));
  size_t frames = 0;
  for (size_t off = 20; off < wal.size(); ++frames) {
    ASSERT_LE(off + 8, wal.size());
    const uint32_t len = le32(&wal[off]);
    ASSERT_LE(off + 8 + len, wal.size());
    EXPECT_EQ(le32(&wal[off + 4]), Crc32cPortable(&wal[off + 8], len));
    off += 8 + len;
  }
  EXPECT_EQ(frames, 3u);

  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 9, 4, 8.0, MakeLog(9), {1, 1}, {1, 2, 3})
          .ok());
  const std::vector<uint8_t> ckpt = ReadFile(CheckpointPath(dir.path(), 9));
  ASSERT_GT(ckpt.size(), 20u);
  EXPECT_EQ(le32(&ckpt[16]), Crc32cPortable(&ckpt[20], ckpt.size() - 20));
}

}  // namespace
}  // namespace splash
