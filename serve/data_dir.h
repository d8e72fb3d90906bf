// Copyright 2026 The SPLASH Reproduction Authors.
//
// The data dir's file layer (DESIGN.md §7): the file operations the WAL
// (serve/wal.cc) and the checkpoints (serve/checkpoint.cc) share, and the
// one naming scheme both use, <prefix><20-digit index><suffix>. What the
// dir keeps is the retention step WriteCheckpoint runs (checkpoint.h).

#ifndef SPLASH_SERVE_DATA_DIR_H_
#define SPLASH_SERVE_DATA_DIR_H_

#include <sys/uio.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace splash {

/// One numbered file of the data dir.
struct DataFile {
  std::string path;
  uint64_t index = 0;  // the number in the file name
};

/// <dir>/<prefix><index as 20 decimal digits><suffix>.
std::string DataFilePath(const std::string& dir, const char* prefix,
                         uint64_t index, const char* suffix);

/// The files of `dir` named <prefix><digits><suffix>, by index, oldest
/// first. Other names (temp files among them) are ignored.
std::vector<DataFile> ListDataFiles(const std::string& dir,
                                    const char* prefix, const char* suffix);

/// Writes every byte the `n` iovecs at `iov` describe, resuming after
/// short writes and EINTR; consumes the array.
Status WriteAll(int fd, iovec* iov, size_t n);

/// Reads the whole of `path` into `out` (resized to the file's length).
Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out);

/// fsyncs `dir`, which makes the names created or renamed in it durable.
Status SyncDir(const std::string& dir);

}  // namespace splash

#endif  // SPLASH_SERVE_DATA_DIR_H_
