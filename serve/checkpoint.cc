// Copyright 2026 The SPLASH Reproduction Authors.

#include "serve/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/serialize.h"
#include "serve/fault_injection.h"

namespace splash {
namespace {

constexpr char kCkptMagic[8] = {'S', 'P', 'L', 'C', 'K', 'P', '1', '\n'};
constexpr size_t kCkptHeaderBytes = 8 + 8 + 4;

Status WriteFully(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Error(std::string("checkpoint: write failed: ") +
                           std::strerror(errno));
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Error("checkpoint: cannot open dir " + dir);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Error("checkpoint: dir fsync failed for " + dir);
  }
  return Status::Ok();
}

/// Checkpoint files in `dir`, sorted newest (largest seq) first.
std::vector<std::pair<uint64_t, std::string>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (struct dirent* ent = ::readdir(d)) {
    const char* name = ent->d_name;
    const size_t len = std::strlen(name);
    if (len <= 16 || std::strncmp(name, "checkpoint-", 11) != 0 ||
        std::strcmp(name + len - 5, ".ckpt") != 0) {
      continue;
    }
    char* end = nullptr;
    const unsigned long long seq = std::strtoull(name + 11, &end, 10);
    if (end == nullptr || std::strcmp(end, ".ckpt") != 0) continue;
    out.emplace_back(static_cast<uint64_t>(seq), dir + "/" + name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace

std::string CheckpointPath(const std::string& dir, uint64_t seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "checkpoint-%020llu.ckpt",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

Status WriteCheckpoint(const std::string& dir, uint64_t seq,
                       uint64_t batches_applied, double wm_time,
                       const EdgeStream& log,
                       const std::vector<uint8_t>& node_seen,
                       const std::vector<uint8_t>& predictor_state) {
  ByteWriter payload;
  payload.U64(seq);
  payload.U64(batches_applied);
  payload.F64(wm_time);
  payload.U64(log.size());
  payload.U64(log.num_nodes());
  payload.Bytes(log.src_data(), log.size() * sizeof(NodeId));
  payload.Bytes(log.dst_data(), log.size() * sizeof(NodeId));
  payload.Bytes(log.time_data(), log.size() * sizeof(double));
  payload.U8Vec(node_seen);
  payload.U8Vec(predictor_state);

  ByteWriter header;
  header.Bytes(kCkptMagic, sizeof(kCkptMagic));
  header.U64(payload.size());
  header.U32(Crc32c(payload.buffer().data(), payload.size()));

  const std::string final_path = CheckpointPath(dir, seq);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::Error("checkpoint: cannot create " + tmp_path + ": " +
                         std::strerror(errno));
  }
  Status st = WriteFully(fd, header.buffer().data(), header.size());
  if (st.ok()) {
    // Two writes with the crash point between them: a mid-write crash
    // leaves a temp file whose length contradicts its header — the loader
    // must reject it and fall back.
    const size_t half = payload.size() / 2;
    st = WriteFully(fd, payload.buffer().data(), half);
    SPLASH_CRASH_POINT(CrashPoint::kCheckpointMidWrite);
    if (st.ok()) {
      st = WriteFully(fd, payload.buffer().data() + half,
                      payload.size() - half);
    }
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

  // GC: keep the newest kCheckpointsToKeep (this one + fallback).
  const auto ckpts = ListCheckpoints(dir);
  for (size_t i = kCheckpointsToKeep; i < ckpts.size(); ++i) {
    ::unlink(ckpts[i].second.c_str());
  }
  return Status::Ok();
}

Status LoadLatestCheckpoint(const std::string& dir, CheckpointData* out,
                            bool* found) {
  *found = false;
  for (const auto& [seq, path] : ListCheckpoints(dir)) {
    (void)seq;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) continue;
    struct stat sb;
    if (::fstat(fd, &sb) != 0 ||
        static_cast<size_t>(sb.st_size) < kCkptHeaderBytes) {
      ::close(fd);
      continue;
    }
    std::vector<uint8_t> buf(static_cast<size_t>(sb.st_size));
    size_t got = 0;
    while (got < buf.size()) {
      const ssize_t r = ::read(fd, buf.data() + got, buf.size() - got);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      got += static_cast<size_t>(r);
    }
    ::close(fd);
    if (got != buf.size()) continue;

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
    std::vector<NodeId> src(static_cast<size_t>(n_edges));
    std::vector<NodeId> dst(static_cast<size_t>(n_edges));
    std::vector<double> time(static_cast<size_t>(n_edges));
    if (!pr.Bytes(src.data(), src.size() * sizeof(NodeId)) ||
        !pr.Bytes(dst.data(), dst.size() * sizeof(NodeId)) ||
        !pr.Bytes(time.data(), time.size() * sizeof(double)) ||
        !pr.U8Vec(&data.node_seen) || !pr.U8Vec(&data.predictor_state) ||
        !pr.ok()) {
      continue;
    }
    data.log.EnsureNodeCapacity(static_cast<size_t>(num_nodes));
    data.log.Reserve(static_cast<size_t>(n_edges));
    bool log_ok = true;
    for (size_t i = 0; i < src.size(); ++i) {
      // The serialized log was monotone by construction; Append re-checks.
      if (!data.log.Append(TemporalEdge(src[i], dst[i], time[i])).ok()) {
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
