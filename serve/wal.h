// Copyright 2026 The SPLASH Reproduction Authors.
//
// Write-ahead log of the serving layer (DESIGN.md §7). The apply thread
// appends one record per coalesced micro-batch — the post-clamp edges, the
// train submissions applied at that boundary, and the resulting watermark —
// BEFORE the batch is applied and published. Restart replays the tail past
// the last checkpoint and reproduces the exact apply sequence, which is
// what makes recovery bit-exact (train-batch composition matters to SLIM's
// update order, so the WAL records boundaries, not just items).
//
// On-disk format (all integers little-endian):
//
//   segment   := header record*
//   header    := magic[8]="SPLWAL1\n"  u64 start_seq  u32 crc32c(start_seq)
//   record    := u32 payload_len  u32 crc32c(payload)  payload
//   payload   := u64 batch_index  u64 seq_begin  u64 seq_end  f64 wm_time
//                u32 n_edges  (u32 src  u32 dst  f64 time)*
//                u32 n_train  (u32 node  f64 time  i32 label)*
//
// `batch_index` is the monotone count of micro-batches ever applied since
// the stream started — the recovery cursor. The edge watermark alone
// cannot disambiguate train-only batches (seq_begin == seq_end) logged
// just before vs. just after a checkpoint at the same edge count; the
// batch index can, so a checkpoint records how many batches it contains
// and replay applies exactly the records with batch_index >= that.
//
// A reader stops cleanly at the first frame that does not fully parse: a
// short header/payload is a torn tail (the crash interrupted a write), a
// CRC or length-sanity failure is a corrupt tail, and so is a CRC-valid
// record no apply thread logs (a kInvalidNode endpoint or train node, a
// non-finite time, edge times decreasing in the record). Either way the
// valid prefix is the log; the tail is truncated, never applied. Segments
// are named wal-<start_batch_index>.log (serve/data_dir.h) and hold the
// records up to the next segment's start; a new one opens at every
// checkpoint (and at recovery). Retention (serve/checkpoint.h) keeps every
// segment a retained checkpoint replays.
//
// Fsync policy is the classic group-commit trade-off:
//   kNone   — never fsync; bounded loss on machine crash, none on process
//             crash (page cache survives kill -9).
//   kBatch  — fsync every `group_records` appends and on rotate/close;
//             bounded-by-group loss on machine crash.
//   kAlways — fsync per append; zero loss, pays a sync per micro-batch.
// Under kBatch/kAlways, Open also fsyncs the dir: a synced record keeps
// its segment's name.

#ifndef SPLASH_SERVE_WAL_H_
#define SPLASH_SERVE_WAL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "core/status.h"
#include "core/types.h"
#include "serve/data_dir.h"

namespace splash {

enum class WalFsyncPolicy {
  kNone,
  kBatch,
  kAlways,
};

/// One durable micro-batch: edges are post-clamp (monotonized timestamps,
/// exactly as appended to the ingest log), so replay needs no re-clamping
/// and [seq_begin, seq_end) names the log range the record produced.
struct WalRecord {
  uint64_t batch_index = 0;  // monotone micro-batch count (recovery cursor)
  uint64_t seq_begin = 0;
  uint64_t seq_end = 0;
  double wm_time = 0.0;
  std::vector<TemporalEdge> edges;
  std::vector<PropertyQuery> train;

  void Clear() {
    batch_index = seq_begin = seq_end = 0;
    wm_time = 0.0;
    edges.clear();
    train.clear();
  }
};

/// How a segment scan ended.
enum class WalTailStatus {
  kClean,    // last record parsed fully
  kTorn,     // trailing partial frame (interrupted write) — truncated
  kCorrupt,  // CRC/length-sanity failure — truncated
};

struct WalScan {
  bool header_ok = false;
  uint64_t start_seq = 0;
  std::vector<WalRecord> records;
  WalTailStatus tail = WalTailStatus::kClean;
  size_t valid_bytes = 0;  // header + fully-valid records
};

/// Single-writer append handle (the apply thread). Append serializes into
/// a reused scratch buffer — steady-state appends allocate nothing once
/// the largest record has been seen. Its counts are totals over every
/// segment, readable from any thread.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter() { Close(); }

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Creates (truncating) `path`, writes the segment header, and under
  /// kBatch/kAlways fsyncs its directory.
  Status Open(const std::string& path, uint64_t start_seq,
              WalFsyncPolicy policy, size_t group_records);

  /// Appends one framed record and applies the fsync policy. Hosts the
  /// wal-after-append / wal-before-fsync / wal-mid-frame crash points.
  Status Append(const WalRecord& rec);

  /// Forces an fdatasync of everything appended so far.
  Status Sync();

  /// Sync (best effort) + close. Idempotent.
  void Close();

  bool is_open() const { return fd_ >= 0; }
  uint64_t records_appended() const { return appended_.load(); }
  uint64_t fsyncs() const { return fsyncs_.load(); }

 private:
  int fd_ = -1;
  WalFsyncPolicy policy_ = WalFsyncPolicy::kBatch;
  size_t group_records_ = 8;
  size_t unsynced_ = 0;
  std::atomic<uint64_t> appended_{0}, fsyncs_{0};  // Open keeps them
  ByteWriter scratch_;
};

/// Reads a whole segment, stopping cleanly at the first invalid frame (see
/// file header). Returns an error Status only when the file cannot be
/// opened/read at all; a torn or corrupt tail is a *successful* scan with
/// `tail` saying why it stopped. `header_ok == false` means the segment
/// header itself is unusable and no record was recovered.
Status ScanWalFile(const std::string& path, WalScan* out);

/// Segment path for a given start batch index: <dir>/wal-<index>.log.
std::string WalSegmentPath(const std::string& dir, uint64_t start_index);

/// The wal-<index>.log segments of `dir`, sorted by start batch index.
std::vector<DataFile> ListWalSegments(const std::string& dir);

/// The one walk of the WAL history: the contiguous records of `dir`'s
/// segments, oldest first, starting at the cursor (from_batch, from_seq).
/// Records below `from_batch` lie inside a checkpoint and are skipped; a
/// torn or corrupt tail ends its segment (the normal crash shape). A
/// segment starting past the next batch needed, or a record whose
/// batch_index or seq_begin breaks contiguity, means history was lost: the
/// walk stops there and sets `*gap`. Recovery reads from its checkpoint
/// cursor; the crash harness and the tests read the full history from
/// (0, 0). Returns the error of a segment that cannot be read at all.
Status ReadWalHistory(const std::string& dir, uint64_t from_batch,
                      uint64_t from_seq, std::vector<WalRecord>* out,
                      bool* gap);

// Record codec, shared by writer, reader, and tests that build corrupt
// frames by hand. Encode writes whatever it is given; Decode rejects the
// malformed records described in the file header.
void EncodeWalRecord(const WalRecord& rec, ByteWriter* w);
bool DecodeWalRecord(ByteReader* r, WalRecord* rec);

}  // namespace splash

#endif  // SPLASH_SERVE_WAL_H_
