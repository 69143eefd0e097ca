#include "ckpt/fields.hpp"

#include <cctype>
#include <limits>

namespace dike::ckpt::detail {

namespace {

/// "'migrationThreadIds' (migration thread ids)": the field as the payload
/// spells it, plus its words when the name is camel case.
std::string label(std::string_view name) {
  std::string words;
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isupper(u) != 0) words += ' ';
    words += static_cast<char>(std::tolower(u));
  }
  std::string out = '\'' + std::string{name} + '\'';
  return words == name ? out : out + " (" + words + ")";
}

}  // namespace

int narrowInt(std::string_view name, std::int64_t v, std::int64_t min) {
  if (v < min || v > std::numeric_limits<int>::max())
    throw CheckpointError{"checkpoint field " + label(name) + " holds " +
                          std::to_string(v) + ", outside [" +
                          std::to_string(min) + ", INT_MAX]"};
  return static_cast<int>(v);
}

void checkIds(std::string_view name, const std::vector<std::int64_t>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    (void)narrowInt(name, ids[i], 0);
    if (i > 0 && ids[i] <= ids[i - 1])
      throw CheckpointError{"checkpoint id column " + label(name) +
                            " repeats or reorders id " +
                            std::to_string(ids[i])};
  }
}

void checkLength(std::string_view idName, std::size_t ids,
                 std::string_view name, std::size_t count) {
  if (count != ids)
    throw CheckpointError{"checkpoint column " + label(name) + " has " +
                          std::to_string(count) + " entries but its id " +
                          "column " + label(idName) + " has " +
                          std::to_string(ids)};
}

std::size_t checkCount(std::string_view name, std::string_view section,
                       std::int64_t count, std::size_t left) {
  // Each listed section costs at least its begin and end records.
  const std::size_t room = left / (2 * (1 + 4 + section.size()));
  if (count < 0 || static_cast<std::uint64_t>(count) > room)
    throw CheckpointError{"checkpoint count " + label(name) + " is " +
                          std::to_string(count) + " but only " +
                          std::to_string(room) + " '" + std::string{section} +
                          "' sections fit in the bytes left"};
  return static_cast<std::size_t>(count);
}

void throwMismatch(std::string_view name, const std::string& got,
                   const std::string& want) {
  throw CheckpointError{"checkpoint field " + label(name) + " is " + got +
                        " but this configuration has " + want +
                        " — the checkpoint was taken under a different "
                        "config; nothing was restored"};
}

}  // namespace dike::ckpt::detail
