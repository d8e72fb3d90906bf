// Copyright 2026 The SPLASH Reproduction Authors.

#include "serve/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "serve/fault_injection.h"

namespace splash {
namespace {

constexpr char kWalMagic[8] = {'S', 'P', 'L', 'W', 'A', 'L', '1', '\n'};
constexpr size_t kWalHeaderBytes = 8 + 8 + 4;  // magic + start_seq + crc
constexpr size_t kFrameHeaderBytes = 8;        // payload_len + payload_crc
// Length sanity cap: a frame claiming more than this is garbage, not a
// record (the largest real micro-batch is a few thousand 16-byte edges).
constexpr uint32_t kMaxRecordBytes = 1u << 30;

Status WriteBytes(int fd, const uint8_t* p, size_t n) {
  iovec iov{const_cast<uint8_t*>(p), n};
  return WriteAll(fd, &iov, 1);
}

}  // namespace

void EncodeWalRecord(const WalRecord& rec, ByteWriter* w) {
  w->U64(rec.batch_index);
  w->U64(rec.seq_begin);
  w->U64(rec.seq_end);
  w->F64(rec.wm_time);
  w->U32(static_cast<uint32_t>(rec.edges.size()));
  for (const TemporalEdge& e : rec.edges) {
    w->U32(e.src);
    w->U32(e.dst);
    w->F64(e.time);
  }
  w->U32(static_cast<uint32_t>(rec.train.size()));
  for (const PropertyQuery& q : rec.train) {
    w->U32(q.node);
    w->F64(q.time);
    w->I32(q.class_label);
  }
}

bool DecodeWalRecord(ByteReader* r, WalRecord* rec) {
  rec->Clear();
  rec->batch_index = r->U64();
  rec->seq_begin = r->U64();
  rec->seq_end = r->U64();
  rec->wm_time = r->F64();
  const uint32_t n_edges = r->U32();
  if (!r->ok() || n_edges > r->remaining() / 16) return false;
  rec->edges.resize(n_edges);
  double prev_time = -INFINITY;
  for (TemporalEdge& e : rec->edges) {
    e.src = r->U32();
    e.dst = r->U32();
    e.time = r->F64();
    // The writer logs post-clamp edges only: valid endpoints, finite and
    // non-decreasing times. Anything else is not a record this service
    // wrote, CRC or not, and must not reach the ingest log.
    if (e.src == kInvalidNode || e.dst == kInvalidNode ||
        !std::isfinite(e.time) || e.time < prev_time) {
      return false;
    }
    prev_time = e.time;
  }
  const uint32_t n_train = r->U32();
  if (!r->ok() || n_train > r->remaining() / 16) return false;
  rec->train.resize(n_train);
  for (PropertyQuery& q : rec->train) {
    q.node = r->U32();
    q.time = r->F64();
    q.class_label = r->I32();
    if (q.node == kInvalidNode || !std::isfinite(q.time)) return false;
  }
  // The record must describe a consistent log range.
  if (!r->ok() || rec->seq_end < rec->seq_begin ||
      rec->seq_end - rec->seq_begin != rec->edges.size()) {
    return false;
  }
  return true;
}

Status WalWriter::Open(const std::string& path, uint64_t start_seq,
                       WalFsyncPolicy policy, size_t group_records) {
  Close();
  fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0) {
    return Status::Error("wal: cannot create " + path + ": " +
                         std::strerror(errno));
  }
  policy_ = policy;
  group_records_ = group_records < 1 ? 1 : group_records;
  unsynced_ = 0;
  scratch_.Clear();
  scratch_.Bytes(kWalMagic, sizeof(kWalMagic));
  scratch_.U64(start_seq);
  scratch_.U32(Crc32c(scratch_.buffer().data() + sizeof(kWalMagic), 8));
  const Status st = WriteBytes(fd_, scratch_.buffer().data(), scratch_.size());
  if (!st.ok() || policy_ == WalFsyncPolicy::kNone) return st;
  // The segment's name must be as durable as the records synced into it.
  const size_t slash = path.rfind('/');
  return SyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

Status WalWriter::Append(const WalRecord& rec) {
  if (fd_ < 0) return Status::Error("wal: append on closed writer");
  scratch_.Clear();
  // Reserve the frame header in-line, then encode the payload after it and
  // patch the header — one contiguous buffer, one write() per record.
  scratch_.U32(0);
  scratch_.U32(0);
  EncodeWalRecord(rec, &scratch_);
  const size_t payload_len = scratch_.size() - kFrameHeaderBytes;
  const uint8_t* payload = scratch_.buffer().data() + kFrameHeaderBytes;
  const uint32_t crc = Crc32c(payload, payload_len);
  uint8_t* frame = scratch_.mutable_data();
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<uint8_t>(payload_len >> (8 * i));
    frame[4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }

#if defined(SPLASH_FAULT_INJECTION)
  if (CrashPointHit(CrashPoint::kWalMidFrame)) {
    // Torn write: a strict prefix of the frame reaches the file, then the
    // process dies. Recovery must truncate this record, never apply it.
    const size_t cut = scratch_.size() / 2 > 0 ? scratch_.size() / 2 : 1;
    WriteBytes(fd_, frame, cut).ok();
    CrashNow();
  }
#endif

  Status st = WriteBytes(fd_, frame, scratch_.size());
  if (!st.ok()) return st;
  appended_.store(appended_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  ++unsynced_;
  SPLASH_CRASH_POINT(CrashPoint::kWalAfterAppend);

  const bool want_sync =
      policy_ == WalFsyncPolicy::kAlways ||
      (policy_ == WalFsyncPolicy::kBatch && unsynced_ >= group_records_);
  if (want_sync) {
    SPLASH_CRASH_POINT(CrashPoint::kWalBeforeFsync);
    return Sync();
  }
  return Status::Ok();
}

Status WalWriter::Sync() {
  if (fd_ < 0 || unsynced_ == 0) return Status::Ok();
  if (::fdatasync(fd_) != 0) {
    return Status::Error(std::string("wal: fdatasync failed: ") +
                         std::strerror(errno));
  }
  unsynced_ = 0;
  fsyncs_.store(fsyncs_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  return Status::Ok();
}

void WalWriter::Close() {
  if (fd_ < 0) return;
  if (policy_ != WalFsyncPolicy::kNone) Sync().ok();
  ::close(fd_);
  fd_ = -1;
}

Status ScanWalFile(const std::string& path, WalScan* out) {
  *out = WalScan();
  std::vector<uint8_t> buf;
  const Status st = ReadWholeFile(path, &buf);
  if (!st.ok()) return st;

  if (buf.size() < kWalHeaderBytes) {
    out->tail = WalTailStatus::kTorn;  // interrupted segment creation
    return Status::Ok();
  }
  if (std::memcmp(buf.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    out->tail = WalTailStatus::kCorrupt;
    return Status::Ok();
  }
  {
    ByteReader hr(buf.data() + sizeof(kWalMagic), 12);
    const uint64_t start_seq = hr.U64();
    const uint32_t want_crc = hr.U32();
    if (Crc32c(buf.data() + sizeof(kWalMagic), 8) != want_crc) {
      out->tail = WalTailStatus::kCorrupt;
      return Status::Ok();
    }
    out->start_seq = start_seq;
  }
  out->header_ok = true;
  out->valid_bytes = kWalHeaderBytes;

  size_t off = kWalHeaderBytes;
  for (;;) {
    const size_t remaining = buf.size() - off;
    if (remaining == 0) break;  // clean end
    if (remaining < kFrameHeaderBytes) {
      out->tail = WalTailStatus::kTorn;
      break;
    }
    ByteReader fh(buf.data() + off, kFrameHeaderBytes);
    const uint32_t payload_len = fh.U32();
    const uint32_t want_crc = fh.U32();
    if (payload_len > kMaxRecordBytes) {
      out->tail = WalTailStatus::kCorrupt;
      break;
    }
    if (remaining - kFrameHeaderBytes < payload_len) {
      out->tail = WalTailStatus::kTorn;
      break;
    }
    const uint8_t* payload = buf.data() + off + kFrameHeaderBytes;
    if (Crc32c(payload, payload_len) != want_crc) {
      out->tail = WalTailStatus::kCorrupt;
      break;
    }
    ByteReader pr(payload, payload_len);
    WalRecord rec;
    if (!DecodeWalRecord(&pr, &rec) || !pr.AtEnd()) {
      out->tail = WalTailStatus::kCorrupt;
      break;
    }
    out->records.push_back(std::move(rec));
    off += kFrameHeaderBytes + payload_len;
    out->valid_bytes = off;
  }
  return Status::Ok();
}

std::string WalSegmentPath(const std::string& dir, uint64_t start_index) {
  return DataFilePath(dir, "wal-", start_index, ".log");
}

std::vector<DataFile> ListWalSegments(const std::string& dir) {
  return ListDataFiles(dir, "wal-", ".log");
}

Status ReadWalHistory(const std::string& dir, uint64_t from_batch,
                      uint64_t from_seq, std::vector<WalRecord>* out,
                      bool* gap) {
  out->clear();
  *gap = false;
  for (const DataFile& seg : ListWalSegments(dir)) {
    // The segment's name is the batch index of its first record: one that
    // starts past the next batch needed shows lost history, records or not.
    if (seg.index > from_batch) {
      *gap = true;
      return Status::Ok();
    }
    WalScan scan;  // a segment with an unusable header holds no records
    const Status st = ScanWalFile(seg.path, &scan);
    if (!st.ok()) return st;
    for (WalRecord& rec : scan.records) {
      if (rec.batch_index < from_batch) continue;  // inside the checkpoint
      if (rec.batch_index != from_batch || rec.seq_begin != from_seq) {
        *gap = true;
        return Status::Ok();
      }
      from_seq = rec.seq_end;
      ++from_batch;
      out->push_back(std::move(rec));
    }
  }
  return Status::Ok();
}

}  // namespace splash
