// Copyright 2026 The SPLASH Reproduction Authors.

#include "serve/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/serialize.h"
#include "serve/data_dir.h"
#include "serve/fault_injection.h"
#include "serve/wal.h"

namespace splash {
namespace {

constexpr char kCkptMagic[8] = {'S', 'P', 'L', 'C', 'K', 'P', '1', '\n'};
constexpr char kCkptPrefix[] = "checkpoint-";
constexpr char kCkptSuffix[] = ".ckpt";
constexpr size_t kCkptHeaderBytes = 8 + 8 + 4;
// Payload fields ahead of the edge columns: seq, batches_applied, wm_time,
// edge count, num_nodes.
constexpr size_t kCkptMetaBytes = 5 * 8;
// The file as written: header, meta, src, dst, time, then node_seen and the
// predictor blob, each behind its u64 length.
constexpr size_t kCkptPieces = 9;

/// Writes bytes [begin, end) of the file that `pieces` spell in order.
Status WriteRange(int fd, const iovec* pieces, size_t n, size_t begin,
                  size_t end) {
  iovec iov[kCkptPieces];
  size_t count = 0;
  size_t off = 0;
  for (size_t i = 0; i < n; off += pieces[i].iov_len, ++i) {
    const size_t lo = std::max(begin, off);
    const size_t hi = std::min(end, off + pieces[i].iov_len);
    if (lo < hi) {
      iov[count++] = {static_cast<uint8_t*>(pieces[i].iov_base) + (lo - off),
                      hi - lo};
    }
  }
  return WriteAll(fd, iov, count);
}

void StoreLE(uint8_t* p, uint64_t v, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// The WAL cursor (batches_applied) in the header of checkpoint `path`,
/// read without validating the file; 0, which keeps every segment, when
/// the header is unreadable.
uint64_t ReadCheckpointCursor(const std::string& path) {
  uint8_t head[kCkptHeaderBytes + 16];
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t got = ::pread(fd, head, sizeof(head), 0);
  ::close(fd);
  if (got != static_cast<ssize_t>(sizeof(head)) ||
      std::memcmp(head, kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return 0;
  }
  return ByteReader(head + kCkptHeaderBytes + 8, 8).U64();
}

/// The data dir's one retention step (see checkpoint.h), run once the
/// checkpoint with WAL cursor `written_cursor` is durable.
void RetainDataDir(const std::string& dir, uint64_t written_cursor,
                   bool gc_wal) {
  const std::vector<DataFile> ckpts =
      ListDataFiles(dir, kCkptPrefix, kCkptSuffix);
  const size_t first_kept = ckpts.size() > kCheckpointsToKeep
                                ? ckpts.size() - kCheckpointsToKeep
                                : 0;
  for (size_t i = 0; i < first_kept; ++i) ::unlink(ckpts[i].path.c_str());
  if (!gc_wal) return;
  uint64_t cursor = written_cursor;
  for (size_t i = first_kept; i < ckpts.size(); ++i) {
    cursor = std::min(cursor, ReadCheckpointCursor(ckpts[i].path));
  }
  // A segment holds the batches up to the next one's start index: no
  // retained checkpoint replays it once that is at or below every cursor.
  const std::vector<DataFile> segs = ListWalSegments(dir);
  for (size_t i = 0; i + 1 < segs.size() && segs[i + 1].index <= cursor;
       ++i) {
    ::unlink(segs[i].path.c_str());
  }
}

}  // namespace

std::string CheckpointPath(const std::string& dir, uint64_t seq) {
  return DataFilePath(dir, kCkptPrefix, seq, kCkptSuffix);
}

Status WriteCheckpoint(const std::string& dir, uint64_t seq,
                       uint64_t batches_applied, double wm_time,
                       const EdgeStream& log,
                       const std::vector<uint8_t>& node_seen,
                       const std::vector<uint8_t>& predictor_state,
                       bool gc_wal) {
  // The payload is never assembled: each piece is written and checksummed
  // straight from where it lives, so a checkpoint costs no copy of the log.
  uint8_t header[kCkptHeaderBytes];
  uint8_t meta[kCkptMetaBytes];
  uint8_t seen_len[8];
  uint8_t blob_len[8];
  uint64_t wm_bits;
  std::memcpy(&wm_bits, &wm_time, sizeof(wm_bits));
  StoreLE(meta, seq, 8);
  StoreLE(meta + 8, batches_applied, 8);
  StoreLE(meta + 16, wm_bits, 8);
  StoreLE(meta + 24, log.size(), 8);
  StoreLE(meta + 32, log.num_nodes(), 8);
  StoreLE(seen_len, node_seen.size(), 8);
  StoreLE(blob_len, predictor_state.size(), 8);
  const auto piece = [](const void* p, size_t n) {
    return iovec{const_cast<void*>(p), n};
  };
  const iovec pieces[kCkptPieces] = {
      piece(header, sizeof(header)),
      piece(meta, sizeof(meta)),
      piece(log.src_data(), log.size() * sizeof(NodeId)),
      piece(log.dst_data(), log.size() * sizeof(NodeId)),
      piece(log.time_data(), log.size() * sizeof(double)),
      piece(seen_len, sizeof(seen_len)),
      piece(node_seen.data(), node_seen.size()),
      piece(blob_len, sizeof(blob_len)),
      piece(predictor_state.data(), predictor_state.size())};
  size_t payload_len = 0;
  uint32_t crc = 0;
  for (size_t i = 1; i < kCkptPieces; ++i) {
    payload_len += pieces[i].iov_len;
    crc = Crc32c(pieces[i].iov_base, pieces[i].iov_len, crc);
  }
  std::memcpy(header, kCkptMagic, sizeof(kCkptMagic));
  StoreLE(header + 8, payload_len, 8);
  StoreLE(header + 16, crc, 4);

  const std::string final_path = CheckpointPath(dir, seq);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::Error("checkpoint: cannot create " + tmp_path + ": " +
                         std::strerror(errno));
  }
  // Two writes with the crash point between them, after the header and
  // half the payload: a mid-write crash leaves a temp file whose length
  // contradicts its header — the loader must reject it and fall back.
  const size_t half = kCkptHeaderBytes + payload_len / 2;
  Status st = WriteRange(fd, pieces, kCkptPieces, 0, half);
  if (st.ok()) {
    SPLASH_CRASH_POINT(CrashPoint::kCheckpointMidWrite);
    st = WriteRange(fd, pieces, kCkptPieces, half,
                    kCkptHeaderBytes + payload_len);
  }
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::Error("checkpoint: fsync failed for " + tmp_path);
  }
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp_path.c_str());
    return st;
  }

  SPLASH_CRASH_POINT(CrashPoint::kCheckpointBeforeRename);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const Status err = Status::Error("checkpoint: rename failed for " +
                                     final_path + ": " +
                                     std::strerror(errno));
    ::unlink(tmp_path.c_str());
    return err;
  }
  st = SyncDir(dir);
  if (!st.ok()) return st;
  RetainDataDir(dir, batches_applied, gc_wal);
  return Status::Ok();
}

Status LoadLatestCheckpoint(const std::string& dir, CheckpointData* out,
                            bool* found) {
  *found = false;
  const std::vector<DataFile> ckpts =
      ListDataFiles(dir, kCkptPrefix, kCkptSuffix);
  std::vector<uint8_t> buf;
  for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {  // newest first
    if (!ReadWholeFile(it->path, &buf).ok() ||
        buf.size() < kCkptHeaderBytes) {
      continue;
    }
    if (std::memcmp(buf.data(), kCkptMagic, sizeof(kCkptMagic)) != 0) {
      continue;
    }
    ByteReader hr(buf.data() + sizeof(kCkptMagic), 12);
    const uint64_t payload_len = hr.U64();
    const uint32_t want_crc = hr.U32();
    if (payload_len != buf.size() - kCkptHeaderBytes) continue;  // torn
    const uint8_t* payload = buf.data() + kCkptHeaderBytes;
    if (Crc32c(payload, payload_len) != want_crc) continue;  // corrupt

    ByteReader pr(payload, static_cast<size_t>(payload_len));
    CheckpointData data;
    data.seq = pr.U64();
    data.batches_applied = pr.U64();
    data.wm_time = pr.F64();
    const uint64_t n_edges = pr.U64();
    const uint64_t num_nodes = pr.U64();
    if (!pr.ok() || n_edges > pr.remaining() / 16) continue;
    const size_t n = static_cast<size_t>(n_edges);
    const uint8_t* src = pr.Span(n * sizeof(NodeId));
    const uint8_t* dst = pr.Span(n * sizeof(NodeId));
    const uint8_t* time = pr.Span(n * sizeof(double));
    if (!pr.U8Vec(&data.node_seen) || !pr.U8Vec(&data.predictor_state) ||
        !pr.ok()) {
      continue;
    }
    data.log.EnsureNodeCapacity(static_cast<size_t>(num_nodes));
    data.log.Reserve(n);
    bool log_ok = true;
    for (size_t i = 0; i < n; ++i) {
      TemporalEdge e;
      std::memcpy(&e.src, src + i * sizeof(NodeId), sizeof(NodeId));
      std::memcpy(&e.dst, dst + i * sizeof(NodeId), sizeof(NodeId));
      std::memcpy(&e.time, time + i * sizeof(double), sizeof(double));
      // The serialized log was monotone by construction; Append re-checks.
      if (!data.log.Append(e).ok()) {
        log_ok = false;
        break;
      }
    }
    // A CRC-valid file must still describe a state the service could have
    // written: the seq is the log size, the watermark is the last edge's
    // time, and the node count covers every endpoint. Otherwise Boot would
    // serve a cursor that disagrees with the state it restores.
    if (!log_ok || data.seq != n_edges ||
        data.wm_time != data.log.max_time() ||
        data.log.num_nodes() != num_nodes) {
      continue;
    }
    *out = std::move(data);
    *found = true;
    return Status::Ok();
  }
  return Status::Ok();
}

}  // namespace splash
