// Restore-time checks made before a restore commits. Each case patches one
// value in the real checkpoint bytes of a stepped Dike run, re-encodes the
// payload, and restores it through RunSession::restore, which must refuse
// with ckpt::CheckpointError — not std::length_error or std::bad_alloc
// from sizing a container by a corrupt count, not std::out_of_range from a
// half-committed restore, and not a read past an array.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include <unistd.h>

#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"
#include "exp/replay.hpp"

namespace dike::exp {
namespace {

/// A flat-testbed Dike run stepped far enough that the observer lists
/// threads and the prediction tracker holds trace points and scores.
class RestoreChecks : public ::testing::Test {
 protected:
  void SetUp() override {
    RunSpec spec;
    spec.workloadId = 3;
    spec.kind = SchedulerKind::Dike;
    spec.scale = 0.25;
    spec.seed = 42;
    RunSession session{spec};
    for (int q = 0; q < 4; ++q) ASSERT_TRUE(session.stepQuantum());
    payload_ = session.checkpointPayload();
    cores_ = session.machine().topology().coreCount();
    threads_ = static_cast<int>(session.machine().threads().size());
  }

  /// Offset of the value of the `nth` record of type `tag` named `name`.
  std::size_t valueAt(ckpt::Tag tag, std::string_view name, int nth = 0) {
    std::string header(1, static_cast<char>(tag));
    for (int i = 0; i < 4; ++i)
      header += static_cast<char>((name.size() >> (8 * i)) & 0xFF);
    header += name;
    std::size_t pos = payload_.find(header);
    for (int i = 0; i < nth && pos != std::string::npos; ++i)
      pos = payload_.find(header, pos + 1);
    EXPECT_NE(pos, std::string::npos) << name << " #" << nth;
    return pos == std::string::npos ? 0 : pos + header.size();
  }

  static std::int64_t get(const std::string& bytes, std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
               bytes[at + static_cast<std::size_t>(i)]))
           << (8 * i);
    return static_cast<std::int64_t>(v);
  }

  static std::string put(std::string bytes, std::size_t at, std::int64_t v) {
    for (int i = 0; i < 8; ++i)
      bytes[at + static_cast<std::size_t>(i)] = static_cast<char>(
          (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF);
    return bytes;
  }

  /// The payload with the `nth` i64 field `name` set to `v`.
  std::string withI64(std::string_view name, std::int64_t v, int nth = 0) {
    return put(payload_, valueAt(ckpt::Tag::I64, name, nth), v);
  }

  /// The payload with entry `index` of the vec<i64> field `name` set to `v`.
  std::string withEntry(std::string_view name, std::size_t index,
                        std::int64_t v) {
    return put(payload_, valueAt(ckpt::Tag::VecI64, name) + 4 + 8 * index, v);
  }

  static void restore(const std::string& payload) {
    // Per test and process: ctest runs the cases concurrently.
    const std::string path =
        ::testing::TempDir() + "/" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(::getpid()) + ".ckpt";
    {
      std::ofstream out{path, std::ios::binary | std::ios::trunc};
      out << ckpt::encodeCheckpoint(payload);
    }
    struct Remove {
      const std::string& path;
      ~Remove() { std::filesystem::remove(path); }
    } cleanup{path};
    (void)RunSession::restore(path);
  }

  std::string payload_;
  int cores_ = 0;
  int threads_ = 0;
};

TEST_F(RestoreChecks, UnpatchedPayloadRestores) {
  EXPECT_NO_THROW(restore(payload_));
}

TEST_F(RestoreChecks, ListCountsAreCheckedBeforeSizing) {
  for (const char* count : {"threadInfoCount", "coreBwWindowCount",
                            "traceCount", "lastScoredCount"}) {
    for (const std::int64_t bad : {std::int64_t{-1}, std::int64_t{1} << 40}) {
      EXPECT_THROW(restore(withI64(count, bad)), ckpt::CheckpointError)
          << count << " = " << bad;
    }
  }
}

TEST_F(RestoreChecks, PhaseIndexMustLieInTheProgram) {
  EXPECT_THROW(restore(withI64("phaseIndex", -1)), ckpt::CheckpointError);
  EXPECT_THROW(restore(withI64("phaseIndex", 1'000'000)),
               ckpt::CheckpointError);
}

TEST_F(RestoreChecks, CoreIdMustBeAnUnplacedMarkerOrACore) {
  EXPECT_THROW(restore(withI64("coreId", -2)), ckpt::CheckpointError);
  EXPECT_THROW(restore(withI64("coreId", cores_)), ckpt::CheckpointError);
}

TEST_F(RestoreChecks, CoreIdMustAgreeWithTheCoreMap) {
  // Move thread 0 onto thread 1's core without touching the core map.
  const std::int64_t core1 =
      get(payload_, valueAt(ckpt::Tag::I64, "coreId", 1));
  ASSERT_GE(core1, 0);
  EXPECT_THROW(restore(withI64("coreId", core1)), ckpt::CheckpointError);
}

TEST_F(RestoreChecks, CoreMapEntriesMustBeThreadsOnThatCore) {
  const std::int64_t occupant =
      get(payload_, valueAt(ckpt::Tag::VecI64, "coreToThread") + 4);
  ASSERT_GE(occupant, 0);
  const std::int64_t other = occupant + 1 < threads_ ? occupant + 1 : 0;
  EXPECT_THROW(restore(withEntry("coreToThread", 0, other)),
               ckpt::CheckpointError);
  EXPECT_THROW(restore(withEntry("coreToThread", 0, threads_)),
               ckpt::CheckpointError);
  EXPECT_THROW(restore(withEntry("coreToThread", 0, -7)),
               ckpt::CheckpointError);
}

TEST_F(RestoreChecks, LiveThreadsMustBeThreadIds) {
  EXPECT_THROW(restore(withEntry("liveThreads", 0, -1)),
               ckpt::CheckpointError);
  EXPECT_THROW(restore(withEntry("liveThreads", 0, threads_)),
               ckpt::CheckpointError);
}

}  // namespace
}  // namespace dike::exp
