#include "ckpt/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>

#include "util/atomic_file.hpp"

namespace dike::ckpt {

namespace {

// magic(8) + version(4) + payload length(8) + checksum(8)
constexpr std::size_t kHeaderSize = 28;
using Header = std::array<char, kHeaderSize>;

void put(char* at, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    at[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint64_t get(std::string_view bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  return v;
}

Header encodeHeader(std::string_view payload) {
  Header h{};
  std::copy(kCheckpointMagic.begin(), kCheckpointMagic.end(), h.data());
  put(h.data() + 8, kCheckpointVersion, 4);
  put(h.data() + 12, payload.size(), 8);
  put(h.data() + 20, fnv1a64(payload), 8);
  return h;
}

/// Validate everything but the checksum. `head` holds the container's
/// first min(size, kHeaderSize) bytes and `bodySize` counts the bytes after
/// them. Returns the declared payload checksum.
std::uint64_t checkHeader(std::string_view head, std::uint64_t bodySize) {
  if (head.size() < kCheckpointMagic.size() ||
      head.substr(0, kCheckpointMagic.size()) != kCheckpointMagic)
    throw CheckpointError{
        "not a Dike checkpoint (bad magic; expected a file written by "
        "ckpt::writeCheckpointFile)"};
  if (head.size() < kHeaderSize)
    throw CheckpointError{"truncated checkpoint: " +
                          std::to_string(head.size()) +
                          " bytes is shorter than the " +
                          std::to_string(kHeaderSize) + "-byte header"};
  const auto version = static_cast<std::uint32_t>(get(head, 8, 4));
  if (version != kCheckpointVersion)
    throw CheckpointError{
        "checkpoint format version " + std::to_string(version) +
        " is not supported by this build (expects version " +
        std::to_string(kCheckpointVersion) + "); nothing was restored"};
  const std::uint64_t length = get(head, 12, 8);
  if (bodySize < length)
    throw CheckpointError{
        "truncated checkpoint: header declares a " + std::to_string(length) +
        "-byte payload but only " + std::to_string(bodySize) +
        " bytes follow"};
  if (bodySize > length)
    throw CheckpointError{"corrupt checkpoint: " +
                          std::to_string(bodySize - length) +
                          " trailing bytes after the declared payload"};
  return get(head, 20, 8);
}

void checkChecksum(std::string_view payload, std::uint64_t expected) {
  const std::uint64_t actual = fnv1a64(payload);
  if (actual == expected) return;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx, expected %016llx",
                static_cast<unsigned long long>(actual),
                static_cast<unsigned long long>(expected));
  throw CheckpointError{std::string{"corrupt checkpoint: payload checksum "} +
                        buf + "; nothing was restored"};
}

/// Owns an open file descriptor.
struct Fd {
  int fd;
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
};

/// Fill `out` from `fd`; false when the file ends first.
bool readExact(int fd, std::span<char> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw CheckpointError{std::string{"failed reading checkpoint file ("} +
                            std::strerror(errno) + ")"};
    }
    if (n == 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string encodeCheckpoint(std::string_view payload) {
  const Header head = encodeHeader(payload);
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(head.data(), head.size());
  out.append(payload);
  return out;
}

std::string decodeCheckpoint(std::string_view bytes) {
  const std::string_view head =
      bytes.substr(0, std::min(bytes.size(), kHeaderSize));
  const std::uint64_t expected = checkHeader(head, bytes.size() - head.size());
  const std::string_view payload = bytes.substr(kHeaderSize);
  checkChecksum(payload, expected);
  return std::string{payload};
}

void writeCheckpointFile(const std::string& path, std::string_view payload) {
  // tmp + fsync + rename + parent-dir fsync: a kill -9 at any instruction
  // leaves either the previous checkpoint or the new one under `path`,
  // never a torn file (the supervised-resume path depends on this). The
  // header goes out in front of the payload without joining the two.
  const Header head = encodeHeader(payload);
  const std::string_view parts[] = {{head.data(), head.size()}, payload};
  try {
    util::writeFileAtomic(path, parts);
  } catch (const std::exception& e) {
    throw CheckpointError{std::string{"cannot write checkpoint: "} +
                          e.what()};
  }
}

std::string readCheckpointFile(const std::string& path) {
  const Fd file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (file.fd < 0)
    throw CheckpointError{"cannot open checkpoint file: " + path};
  struct stat st {};
  if (::fstat(file.fd, &st) != 0 || !S_ISREG(st.st_mode))
    throw CheckpointError{"failed reading checkpoint file: " + path +
                          " (not a regular file)"};
  // The header is read on its own and checked against the file size, so
  // the payload is sized once and read straight into the string returned.
  try {
    const auto size = static_cast<std::uint64_t>(st.st_size);
    Header head{};
    const std::size_t headSize =
        static_cast<std::size_t>(std::min<std::uint64_t>(size, kHeaderSize));
    const std::span<char> headBytes{head.data(), headSize};
    std::string payload;
    if (readExact(file.fd, headBytes)) {
      const std::uint64_t expected =
          checkHeader({head.data(), headSize}, size - headSize);
      payload.resize(static_cast<std::size_t>(size - headSize));
      if (readExact(file.fd, payload)) {
        checkChecksum(payload, expected);
        return payload;
      }
    }
    throw CheckpointError{"truncated checkpoint: the file shrank while it "
                          "was being read"};
  } catch (const CheckpointError& e) {
    throw CheckpointError{path + ": " + e.what()};
  }
}

std::string checkpointFileName(std::int64_t quantum) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt-%012lld.ckpt",
                static_cast<long long>(quantum));
  return buf;
}

namespace {

/// Parse the quantum index out of a canonical checkpoint file name;
/// -1 for any other name (still a valid checkpoint, just unordered).
std::int64_t quantumFromFileName(const std::string& name) {
  if (name.rfind("ckpt-", 0) != 0 || name.size() <= 10) return -1;
  const std::string_view digits{name.data() + 5, name.size() - 10};
  if (name.substr(name.size() - 5) != ".ckpt" || digits.empty()) return -1;
  std::int64_t v = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), v);
  if (ec != std::errc{} || end != digits.data() + digits.size()) return -1;
  return v;
}

}  // namespace

CheckpointDirScan findLatestValidCheckpoint(const std::string& dir) {
  namespace fs = std::filesystem;
  CheckpointDirScan scan;
  std::error_code ec;
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator{dir, ec}) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.ends_with(".ckpt"))
      names.push_back(name);
    else if (name.ends_with(".ckpt.tmp"))
      // Expected debris after a kill mid-checkpoint: the atomic-write
      // protocol guarantees the final name was never touched. Reported,
      // not treated as corruption.
      scan.partials.push_back(dir + "/" + name +
                              ": partial write (interrupted before rename)");
  }
  // Zero-padded names make lexicographic descending order == newest first.
  std::sort(names.begin(), names.end(), std::greater<>{});
  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    try {
      (void)readCheckpointFile(path);
      scan.path = path;
      scan.quantum = quantumFromFileName(name);
      return scan;
    } catch (const CheckpointError& e) {
      scan.skipped.push_back(std::string{e.what()});
    }
  }
  return scan;
}

}  // namespace dike::ckpt
