// Crash-atomic file primitives shared by checkpoints and run artifacts.
//
// The supervision story (docs/RESILIENCE.md) needs every artifact a resumed
// run reads — checkpoints, the quantum stream, final reports, registry
// dumps — to be either complete or absent after a kill at any instruction.
// Two shapes cover all of them:
//   * writeFileAtomic / AtomicFileWriter: whole-file replace through
//     "<path>.tmp" + fsync + rename + parent-directory fsync, so the final
//     name never holds a torn file;
//   * AppendFile: an O_APPEND fd with an explicit flushSync() barrier, for
//     streams that grow a record at a time and are trimmed to the last
//     checkpoint on resume (a torn *tail* is recoverable; a torn rewrite of
//     the whole file is not).
#pragma once

#include <span>
#include <string>
#include <string_view>

namespace dike::util {

/// Replace `path` with `bytes` atomically: write "<path>.tmp", fsync it,
/// rename over `path`, fsync the parent directory. Throws
/// std::runtime_error with the path on any failure (the tmp file is
/// removed best-effort).
void writeFileAtomic(const std::string& path, std::string_view bytes);

/// writeFileAtomic of the concatenation of `parts`, written in order
/// without first joining them into one buffer (a small header in front of
/// a large body, say).
void writeFileAtomic(const std::string& path,
                     std::span<const std::string_view> parts);

/// Append-only file handle for crash-trimmable streams. Writes go straight
/// to the fd (O_APPEND), so a kill loses at most the bytes since the last
/// flushSync(); it never corrupts earlier records.
class AppendFile {
 public:
  /// Opens (creating if needed) for append; `truncate` starts it empty.
  /// Throws std::runtime_error with the path when the open fails.
  explicit AppendFile(const std::string& path, bool truncate = false);
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Write all of `bytes` (EINTR-safe). Throws on I/O error.
  void append(std::string_view bytes);

  /// Durability barrier: fsync the fd. After this returns, every appended
  /// byte survives a crash. Throws on failure.
  void flushSync();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

/// Keep only the first `lines` newline-terminated lines of `path`,
/// dropping a torn (unterminated) tail and any complete lines beyond the
/// count; the rewrite itself goes through writeFileAtomic. Returns the
/// number of lines dropped (0 when the file already matches). A missing
/// file with `lines == 0` is fine; a missing file with `lines > 0` throws
/// — the caller promised content that does not exist.
std::int64_t trimFileToLines(const std::string& path, std::int64_t lines);

}  // namespace dike::util
