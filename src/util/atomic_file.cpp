#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace dike::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error{what + ": " + path + " (" + std::strerror(errno) +
                           ")"};
}

int openRetry(const char* path, int flags, mode_t mode = 0) {
  for (;;) {
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

void writeAll(int fd, const char* data, std::size_t size,
              const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("failed writing", path);
    }
    written += static_cast<std::size_t>(n);
  }
}

void fsyncRetry(int fd, const std::string& path) {
  while (::fsync(fd) != 0)
    if (errno != EINTR) fail("fsync failed for", path);
}

void closeRetry(int fd) {
  // POSIX leaves the fd state unspecified after EINTR from close; Linux
  // always releases it, so retrying would race a reuse. Close once.
  ::close(fd);
}

/// fsync the directory containing `path` so the rename itself is durable.
/// Best-effort: some filesystems refuse O_DIRECTORY fsync; the rename is
/// still atomic, just not yet journalled.
void fsyncParentDir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string{"."}
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = openRetry(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  closeRetry(fd);
}

}  // namespace

void writeFileAtomic(const std::string& path, std::string_view bytes) {
  writeFileAtomic(path, std::span{&bytes, 1});
}

void writeFileAtomic(const std::string& path,
                     std::span<const std::string_view> parts) {
  const std::string tmp = path + ".tmp";
  const int fd =
      openRetry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("cannot open for writing", tmp);
  try {
    for (const std::string_view bytes : parts)
      writeAll(fd, bytes.data(), bytes.size(), tmp);
    fsyncRetry(fd, tmp);
  } catch (...) {
    closeRetry(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  closeRetry(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    fail("cannot move into place", path);
  }
  fsyncParentDir(path);
}

AppendFile::AppendFile(const std::string& path, bool truncate) : path_(path) {
  int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  fd_ = openRetry(path.c_str(), flags, 0644);
  if (fd_ < 0) fail("cannot open for append", path);
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) closeRetry(fd_);
}

void AppendFile::append(std::string_view bytes) {
  writeAll(fd_, bytes.data(), bytes.size(), path_);
}

void AppendFile::flushSync() { fsyncRetry(fd_, path_); }

std::int64_t trimFileToLines(const std::string& path, std::int64_t lines) {
  const int fd = openRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT && lines == 0) return 0;
    fail("cannot open for trimming", path);
  }
  std::string content;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      closeRetry(fd);
      fail("failed reading", path);
    }
    if (n == 0) break;
    content.append(buf, static_cast<std::size_t>(n));
  }
  closeRetry(fd);

  std::size_t keep = 0;
  std::int64_t seen = 0;
  while (seen < lines) {
    const auto nl = content.find('\n', keep);
    if (nl == std::string::npos) break;
    keep = nl + 1;
    ++seen;
  }
  if (seen < lines)
    throw std::runtime_error{"cannot trim " + path + " to " +
                             std::to_string(lines) + " lines: only " +
                             std::to_string(seen) + " complete lines exist"};
  // Count what we are about to drop: complete lines past the cut plus a
  // possible torn tail.
  std::int64_t dropped = 0;
  for (std::size_t at = keep;;) {
    const auto nl = content.find('\n', at);
    if (nl == std::string::npos) {
      if (at < content.size()) ++dropped;  // torn tail
      break;
    }
    ++dropped;
    at = nl + 1;
  }
  if (dropped == 0) return 0;
  writeFileAtomic(path, std::string_view{content}.substr(0, keep));
  return dropped;
}

}  // namespace dike::util
