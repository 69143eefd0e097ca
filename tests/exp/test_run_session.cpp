// The one run path: every run is assembled by RunSession, so what a RunSpec
// asks for holds on every entry point. Fault-plan churn adds its processes
// to plain and checkpointed runs alike (and a checkpoint taken mid-churn
// resumes byte-identically, while a corrupt churn cursor fails the restore),
// a stop request yields a stopped report, dynamic runs report Dike's
// decisions like any other run, and attachments no checkpoint can hold
// refuse to checkpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include <unistd.h>

#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"
#include "exp/dynamic.hpp"
#include "exp/replay.hpp"
#include "util/stop.hpp"

namespace dike::exp {
namespace {

/// Workload 3 (five applications) with four churn arrivals in [200, 2000).
RunSpec churnSpec() {
  RunSpec spec;
  spec.workloadId = 3;
  spec.kind = SchedulerKind::DikeAF;
  spec.scale = 0.05;
  spec.seed = 7;
  fault::FaultPlan plan;
  plan.window.startTick = 200;
  plan.window.endTick = 2000;
  plan.churn.arrivals = 4;
  spec.faults = plan;
  return spec;
}

std::string report(const RunMetrics& m) { return runMetricsToJson(m).dump(2); }

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "/" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + std::to_string(::getpid()) + "_" + name;
}

TEST(RunSession, FaultPlanChurnAddsItsProcesses) {
  RunSpec base = churnSpec();
  base.faults.reset();
  const RunMetrics without = runWorkload(base);
  const RunMetrics with = runWorkload(churnSpec());
  ASSERT_FALSE(with.timedOut);
  EXPECT_EQ(without.processes.size(), 5u);
  EXPECT_EQ(with.processes.size(), without.processes.size() + 4);
  // The checkpointed entry point honours the same plan.
  EXPECT_EQ(report(runWorkloadCheckpointed(churnSpec(), {})), report(with));
}

TEST(RunSession, CheckpointInsideTheChurnWindowResumesByteIdentical) {
  const std::string uninterrupted = report(RunSession{churnSpec()}.finish());

  RunSession stepped{churnSpec()};
  const std::size_t base = stepped.machine().processes().size();
  // Step until some, but not all, churn arrivals have landed.
  while (stepped.machine().processes().size() == base)
    ASSERT_TRUE(stepped.stepQuantum()) << "no churn arrival before the end";
  ASSERT_LT(stepped.machine().now(), 2000) << "checkpoint left the window";
  ASSERT_LT(stepped.machine().processes().size(), base + 4);

  const std::string path = tempPath("churn.ckpt");
  stepped.writeCheckpoint(path);
  const std::unique_ptr<RunSession> restored = RunSession::restore(path);
  std::filesystem::remove(path);
  EXPECT_EQ(restored->checkpointPayload(), stepped.checkpointPayload());
  EXPECT_EQ(report(restored->finish()), uninterrupted);
  EXPECT_EQ(report(stepped.finish()), uninterrupted);
}

/// `payload` with its i64 record `name` set to `v`.
std::string withI64(std::string payload, std::string_view name,
                    std::int64_t v) {
  std::string header(1, static_cast<char>(ckpt::Tag::I64));
  for (int i = 0; i < 4; ++i)
    header += static_cast<char>((name.size() >> (8 * i)) & 0xFF);
  header += name;
  const std::size_t at = payload.find(header);
  EXPECT_NE(at, std::string::npos) << name;
  for (int i = 0; i < 8 && at != std::string::npos; ++i)
    payload[at + header.size() + static_cast<std::size_t>(i)] =
        static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF);
  return payload;
}

TEST(RunSession, CorruptChurnCursorFailsTheRestore) {
  RunSession stepped{churnSpec()};
  const std::size_t base = stepped.machine().processes().size();
  while (stepped.machine().processes().size() == base)
    ASSERT_TRUE(stepped.stepQuantum());
  const std::string payload = stepped.checkpointPayload();
  const std::string path = tempPath("corrupt.ckpt");
  // Out of the plan's range, and in range but disagreeing with the
  // machine's process list.
  for (const std::int64_t injected : {-1, 5, 0}) {
    {
      std::ofstream out{path, std::ios::binary | std::ios::trunc};
      out << ckpt::encodeCheckpoint(
          withI64(payload, "churnInjected", injected));
    }
    EXPECT_THROW((void)RunSession::restore(path), ckpt::CheckpointError)
        << "churnInjected = " << injected;
  }
  std::filesystem::remove(path);
}

// A stop request (SIGINT/SIGTERM) mid-run unwinds at a quantum boundary
// into a report marked stopped, not into scoring unfinished threads.
TEST(RunSession, StopRequestEndsTheRunWithAStoppedReport) {
  RunSession session{churnSpec()};
  for (int q = 0; q < 3; ++q) ASSERT_TRUE(session.stepQuantum());
  util::requestStop();
  struct Reset {
    ~Reset() { util::resetStopRequest(); }
  } reset;
  const RunMetrics m = session.finish();
  EXPECT_TRUE(m.stopped);
  EXPECT_FALSE(m.timedOut);
  EXPECT_TRUE(m.processes.empty());
  EXPECT_FALSE(session.machine().allFinished());
}

TEST(RunSession, DynamicRunReportsDikeDecisions) {
  DynamicRunSpec spec;
  spec.workloadId = 2;
  spec.kind = SchedulerKind::Dike;
  spec.scale = 0.1;
  spec.arrivals = {Arrival{2'000, "jacobi", 8, 0.1}};
  const RunMetrics m = runDynamicWorkload(spec);
  EXPECT_GT(m.decisions.quanta, 0);
  EXPECT_TRUE(m.hasPredictions);
}

TEST(RunSession, AttachmentsOutsideACheckpointRefuseToCheckpoint) {
  RunSpec spec = churnSpec();
  spec.faults.reset();
  RunAttachments arrivals;
  arrivals.arrivals = {Arrival{1'000, "jacobi", 2, 0.05}};
  RunSession withArrivals{spec, arrivals};
  EXPECT_THROW(withArrivals.writeCheckpoint(tempPath("a.ckpt")),
               std::logic_error);

  RunAttachments script;
  script.frequencyScript = {FrequencyChange{1'000, 1, 1.21}};
  RunSession withScript{spec, script};
  EXPECT_THROW((void)withScript.checkpointPayload(), std::logic_error);
  EXPECT_FALSE(std::filesystem::exists(tempPath("a.ckpt")));

  // Explicit arrivals and fault-plan churn are two schedules for one slot.
  EXPECT_THROW((RunSession{churnSpec(), arrivals}), std::invalid_argument);
}

}  // namespace
}  // namespace dike::exp
