// Copyright 2026 The SPLASH Reproduction Authors.

#include "serve/data_dir.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace splash {

std::string DataFilePath(const std::string& dir, const char* prefix,
                         uint64_t index, const char* suffix) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%020llu%s", prefix,
                static_cast<unsigned long long>(index), suffix);
  return dir + "/" + name;
}

std::vector<DataFile> ListDataFiles(const std::string& dir,
                                    const char* prefix, const char* suffix) {
  std::vector<DataFile> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  const size_t plen = std::strlen(prefix);
  const size_t slen = std::strlen(suffix);
  while (const struct dirent* ent = ::readdir(d)) {
    const char* name = ent->d_name;
    const size_t len = std::strlen(name);
    if (len <= plen + slen || std::strncmp(name, prefix, plen) != 0 ||
        std::strcmp(name + len - slen, suffix) != 0) {
      continue;
    }
    uint64_t index = 0;
    bool digits = true;
    for (const char* p = name + plen; p != name + len - slen; ++p) {
      digits = digits && *p >= '0' && *p <= '9';
      index = index * 10 + static_cast<uint64_t>(*p - '0');
    }
    if (digits) out.push_back({dir + "/" + name, index});
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(), [](const DataFile& a, const DataFile& b) {
    return a.index < b.index;
  });
  return out;
}

Status WriteAll(int fd, iovec* iov, size_t n) {
  while (n > 0) {
    const ssize_t w = ::writev(fd, iov, static_cast<int>(n));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Error(std::string("data dir: write failed: ") +
                           std::strerror(errno));
    }
    size_t done = static_cast<size_t>(w);
    for (; n > 0 && done >= iov->iov_len; ++iov, --n) done -= iov->iov_len;
    if (n > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return Status::Ok();
}

Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Error("data dir: cannot open " + path + ": " +
                         std::strerror(errno));
  }
  struct stat sb;
  if (::fstat(fd, &sb) != 0) {
    ::close(fd);
    return Status::Error("data dir: cannot stat " + path);
  }
  out->resize(static_cast<size_t>(sb.st_size));
  size_t got = 0;
  while (got < out->size()) {
    const ssize_t r = ::read(fd, out->data() + got, out->size() - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<size_t>(r);
  }
  ::close(fd);
  if (got != out->size()) {
    return Status::Error("data dir: short read on " + path);
  }
  return Status::Ok();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Error("data dir: cannot open dir " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Error("data dir: fsync failed for " + dir);
  return Status::Ok();
}

}  // namespace splash
