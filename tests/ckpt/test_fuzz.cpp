// Seeded structure-aware fuzzing of the two parsers that gate every resume:
// the checkpoint container + archive (ckpt/) and the experiment-config JSON
// (exp/config_io). The contract under mutation is always the same — either
// the input parses, or the parser throws a typed exception with a non-empty
// message. Never a crash, never a silent partial apply: a failed
// decode/parse hands nothing to the caller (both APIs return by value).
//
// N = 500 seeds per target. Mutations are structure-aware: they hit record
// boundaries, length prefixes, and JSON fields — the places where a naive
// parser reads past the end or misinterprets the stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"
#include "exp/config_io.hpp"
#include "util/json.hpp"

namespace ckpt = dike::ckpt;
namespace dexp = dike::exp;
namespace util = dike::util;

namespace {

constexpr int kSeeds = 500;

/// A representative archive payload: nested sections, every field type.
std::string samplePayload() {
  ckpt::BinWriter w;
  w.beginSection("run");
  w.u64("seed", 0x1234'5678'9abc'def0ULL);
  w.i64("quantum", -42);
  w.str("scheduler", "dike-af");
  w.beginSection("machine");
  w.f64("now", 123456.789);
  w.boolean("heterogeneous", true);
  const std::vector<double> cum{1.5, -2.25, 3.75};
  w.vecF64("cum", cum);
  const std::vector<std::int64_t> ids{7, 8, 9};
  w.vecI64("ids", ids);
  const std::vector<int> cores{0, 1, 2, 3};
  w.vecInt("cores", cores);
  w.endSection();
  w.endSection();
  return w.take();
}

/// Apply one structure-aware mutation chosen by `rng`.
std::string mutate(std::string bytes, std::mt19937_64& rng) {
  if (bytes.empty()) return bytes;
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>{0, n - 1}(rng);
  };
  switch (pick(6)) {
    case 0:  // truncate anywhere (torn write)
      bytes.resize(pick(bytes.size()));
      break;
    case 1:  // flip one bit (bit rot)
      bytes[pick(bytes.size())] ^= static_cast<char>(1 << pick(8));
      break;
    case 2: {  // duplicate a random slice (double write)
      const std::size_t at = pick(bytes.size());
      const std::size_t len = 1 + pick(std::min<std::size_t>(
                                      32, bytes.size() - at));
      bytes.insert(at, bytes.substr(at, len));
      break;
    }
    case 3: {  // zero a 4-byte window (targets length prefixes/tags)
      const std::size_t at = pick(bytes.size());
      for (std::size_t i = at; i < std::min(at + 4, bytes.size()); ++i)
        bytes[i] = 0;
      break;
    }
    case 4: {  // saturate a 4-byte window (huge length prefixes)
      const std::size_t at = pick(bytes.size());
      for (std::size_t i = at; i < std::min(at + 4, bytes.size()); ++i)
        bytes[i] = static_cast<char>(0xFF);
      break;
    }
    default:  // append garbage (trailing bytes after a valid stream)
      bytes += "GARBAGE";
      break;
  }
  return bytes;
}

TEST(CheckpointFuzz, MutatedContainersRejectLoudlyOrParse) {
  const std::string valid = ckpt::encodeCheckpoint(samplePayload());
  int rejected = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng{static_cast<std::uint64_t>(seed)};
    std::string bytes = valid;
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < rounds; ++i) bytes = mutate(std::move(bytes), rng);
    try {
      const std::string payload = ckpt::decodeCheckpoint(bytes);
      // Checksum passed => the payload bytes are intact; the archive layer
      // must agree (mutations that cancel out are legitimately valid).
      (void)ckpt::tokenize(payload);
    } catch (const ckpt::CheckpointError& e) {
      ++rejected;
      EXPECT_STRNE(e.what(), "") << "seed " << seed;
    }
    // Any other exception type (or a crash) fails the test via gtest.
  }
  EXPECT_GT(rejected, kSeeds / 2)
      << "mutations should usually produce invalid containers";
}

TEST(CheckpointFuzz, MutatedPayloadsNeverCrashTheArchiveReader) {
  const std::string valid = samplePayload();
  int rejected = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng{static_cast<std::uint64_t>(seed) * 7919 + 1};
    std::string bytes = mutate(valid, rng);
    // tokenize exercises the same bounds-checked record walk the typed
    // readers use, across every field in one call.
    try {
      (void)ckpt::tokenize(bytes);
    } catch (const ckpt::CheckpointError& e) {
      ++rejected;
      EXPECT_STRNE(e.what(), "") << "seed " << seed;
    }
    // A failed typed read yields no value: reading a mutated stream with
    // the original schema either returns or throws before any value lands.
    try {
      ckpt::BinReader r{bytes};
      r.beginSection("run");
      (void)r.u64("seed");
      (void)r.i64("quantum");
      (void)r.str("scheduler");
      r.beginSection("machine");
      (void)r.f64("now");
      (void)r.boolean("heterogeneous");
      (void)r.vecF64("cum");
      (void)r.vecI64("ids");
      (void)r.vecInt("cores");
      r.endSection();
      r.endSection();
      r.expectEnd();
    } catch (const ckpt::CheckpointError&) {
      // expected for most mutations
    }
  }
  EXPECT_GT(rejected, 0);
}

/// A config exercising every top-level section the parser knows.
const char* kConfigText = R"({
  "experiment": "fuzz-base",
  "workloads": [2, 7],
  "schedulers": ["cfs", "dike-af"],
  "scale": 0.25,
  "seed": 42,
  "reps": 2,
  "heterogeneous": true,
  "dike": {
    "swapSize": 8,
    "quantaLengthMs": 500,
    "fairnessThreshold": 0.03,
    "swapOhMs": 25.0,
    "resilience": {
      "sanitizeSamples": true,
      "maxPlausibleRate": 4000000000.0,
      "cooldownQuanta": 3
    }
  },
  "machine": {
    "llcPerSocketMB": 20,
    "socketLinkAccessesPerSec": 500000000
  },
  "telemetry": {
    "enabled": true,
    "quantumMetrics": "",
    "livePublish": false
  },
  "slo": {
    "enabled": true,
    "fairness": 0.08
  },
  "faults": {
    "enabled": true,
    "seed": 99,
    "samples": {"dropProbability": 0.05}
  }
})";

std::string mutateText(std::string text, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>{0, n - 1}(rng);
  };
  // Collect line boundaries so mutations operate on whole fields.
  std::vector<std::pair<std::size_t, std::size_t>> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t nl = text.find('\n', at);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.emplace_back(at, end - at);
    at = end;
  }
  switch (pick(6)) {
    case 0:  // truncate mid-document
      text.resize(pick(text.size()));
      break;
    case 1:  // corrupt one byte
      text[pick(text.size())] =
          static_cast<char>(' ' + static_cast<char>(pick(94)));
      break;
    case 2: {  // duplicate a field line (duplicate JSON keys)
      const auto [at, len] = lines[pick(lines.size())];
      text.insert(at, text.substr(at, len));
      break;
    }
    case 3: {  // delete a field line (missing required keys)
      const auto [at, len] = lines[pick(lines.size())];
      text.erase(at, len);
      break;
    }
    case 4: {  // reorder: swap two field lines
      auto a = lines[pick(lines.size())];
      auto b = lines[pick(lines.size())];
      if (a.first > b.first) std::swap(a, b);
      if (a.first + a.second <= b.first) {
        const std::string lineA = text.substr(a.first, a.second);
        const std::string lineB = text.substr(b.first, b.second);
        text.replace(b.first, b.second, lineA);
        text.replace(a.first, a.second, lineB);
      }
      break;
    }
    default: {  // perturb a digit (out-of-range / type-confusing values)
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < text.size(); ++i)
        if (text[i] >= '0' && text[i] <= '9') digits.push_back(i);
      if (!digits.empty())
        text[digits[pick(digits.size())]] =
            static_cast<char>('0' + static_cast<char>(pick(10)));
      break;
    }
  }
  return text;
}

TEST(ConfigFuzz, MutatedConfigsRejectLoudlyOrParse) {
  // The base text must be accepted before fuzzing means anything.
  ASSERT_NO_THROW((void)dexp::parseExperimentConfig(util::parseJson(
      kConfigText)));
  int rejected = 0;
  int accepted = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng{static_cast<std::uint64_t>(seed) * 104729 + 3};
    std::string text = kConfigText;
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < rounds; ++i) text = mutateText(std::move(text), rng);
    try {
      const util::JsonValue doc = util::parseJson(text);
      const dexp::ExperimentConfig config = dexp::parseExperimentConfig(doc);
      // Parsed: the config is a complete value (parse returns by value, so
      // there is no half-applied state to observe); basic invariants hold.
      EXPECT_FALSE(config.workloadIds.empty()) << "seed " << seed;
      ++accepted;
    } catch (const std::exception& e) {
      ++rejected;
      EXPECT_STRNE(e.what(), "") << "seed " << seed;
    }
  }
  // Structure-aware mutation should produce a healthy mix of both: all-
  // rejected means the mutations are too blunt to probe deep parser paths.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

}  // namespace
