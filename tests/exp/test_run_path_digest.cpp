// Byte pins for every way a simulated run is started: runWorkload reports
// (flat and faulted), one Dike run's telemetry artifacts (quantum stream as
// CSV and NDJSON, events CSV, Chrome trace), the acceptance soak report,
// and the outcome fields of the dynamic-arrival and DVFS runs. The FNV-1a
// digest of each must equal a constant recorded from a known-good build.
//
// test_checkpoint_digest pins the checkpointed session; these pins cover
// the entry points around it, so any change to how a run is assembled or
// stepped is checked against these bytes. A drifted pin prints its
// observed value. Labelled "replay" with the rest of that tier.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include "ckpt/checkpoint.hpp"
#include "exp/dvfs.hpp"
#include "exp/dynamic.hpp"
#include "exp/replay.hpp"
#include "exp/soak.hpp"

namespace dike::exp {
namespace {

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

void expectPin(const std::string& what, std::uint64_t observed,
               std::uint64_t pinned) {
  EXPECT_TRUE(observed == pinned)
      << what << " drifted; observed " << hex(observed);
}

std::uint64_t reportDigest(const RunMetrics& m) {
  return ckpt::fnv1a64(runMetricsToJson(m).dump(2));
}

/// The outcome of a run without its scheduler-side fields (decisions,
/// predictions), which the dynamic and DVFS reports did not always carry.
std::uint64_t outcomeDigest(const RunMetrics& m) {
  RunMetrics o;
  o.makespan = m.makespan;
  o.timedOut = m.timedOut;
  o.fairness = m.fairness;
  o.swaps = m.swaps;
  o.migrations = m.migrations;
  o.energyJoules = m.energyJoules;
  o.processes = m.processes;
  return reportDigest(o);
}

RunSpec flatSpec(SchedulerKind kind) {
  RunSpec spec;
  spec.workloadId = 3;
  spec.kind = kind;
  spec.scale = 0.05;
  spec.seed = 42;
  return spec;
}

RunSpec faultedSpec(SchedulerKind kind) {
  RunSpec spec = flatSpec(kind);
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.window.startTick = 500;
  plan.window.endTick = 4000;
  plan.samples.dropProbability = 0.05;
  plan.samples.corruptProbability = 0.1;
  plan.samples.stuckAtZeroProbability = 0.02;
  plan.actuation.swapFailProbability = 0.2;
  plan.actuation.migrationFailProbability = 0.2;
  plan.cores.freqDipProbability = 0.03;
  spec.faults = plan;
  return spec;
}

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "/" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + std::to_string(::getpid()) + "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

TEST(RunPathDigest, RunWorkloadReports) {
  struct Row {
    SchedulerKind kind;
    std::uint64_t flat;
    std::uint64_t faulted;
  };
  const Row rows[] = {
      {SchedulerKind::Cfs, 0x97cb40db3a4ef0a8, 0x08669071d95541d1},
      {SchedulerKind::Dio, 0x2bf51c41854e7111, 0x1e77d632c646ce50},
      {SchedulerKind::Dike, 0x9297f460aac7439c, 0x8beabe18c47af7d9},
      {SchedulerKind::DikeAF, 0xaae7f4ea213baf86, 0xa25c485f3d127d3c},
      {SchedulerKind::StaticOracle, 0xe81c00ea637def16, 0x1238869b2bd6e606},
  };
  for (const Row& row : rows) {
    const std::string name{toString(row.kind)};
    expectPin(name + " flat report",
              reportDigest(runWorkload(flatSpec(row.kind))), row.flat);
    expectPin(name + " faulted report",
              reportDigest(runWorkload(faultedSpec(row.kind))), row.faulted);
  }
}

TEST(RunPathDigest, DikeTelemetryArtifacts) {
  const std::string csv = tempPath("quanta.csv");
  const std::string ndjson = tempPath("quanta.ndjson");
  const std::string events = tempPath("events.csv");
  const std::string chrome = tempPath("trace.json");

  RunSpec spec = flatSpec(SchedulerKind::DikeAF);
  spec.telemetry.quantumMetricsPath = csv;
  spec.telemetry.eventsCsvPath = events;
  spec.telemetry.chromeTracePath = chrome;
  const RunMetrics withEvents = runWorkload(spec);
  spec.telemetry = RunTelemetry{};
  spec.telemetry.quantumMetricsPath = ndjson;
  const RunMetrics streamOnly = runWorkload(spec);

  // Telemetry observes the run; it must not change the report.
  EXPECT_EQ(reportDigest(withEvents), reportDigest(streamOnly));
  expectPin("report", reportDigest(withEvents), 0xaae7f4ea213baf86);
  expectPin("quantum stream CSV", ckpt::fnv1a64(slurp(csv)),
            0x58958a91d0b76185);
  expectPin("quantum stream NDJSON", ckpt::fnv1a64(slurp(ndjson)),
            0xd2225ae79657558c);
  expectPin("events CSV", ckpt::fnv1a64(slurp(events)),
            0x517114decc22de3b);
  expectPin("Chrome trace", ckpt::fnv1a64(slurp(chrome)),
            0xa631770c65f9fa02);
  for (const std::string& path : {csv, ndjson, events, chrome}) {
    EXPECT_GT(std::filesystem::file_size(path), 0u) << path;
    std::filesystem::remove(path);
  }
}

TEST(RunPathDigest, AcceptanceSoakReport) {
  SoakSpec spec;
  spec.faults = defaultSoakPlan(/*startTick=*/1000, /*endTick=*/6000,
                                /*churnArrivals=*/4, /*seed=*/7);
  expectPin("soak report", ckpt::fnv1a64(toJson(runSoak(spec)).dump(2)),
            0xb478e577321e4e21);
}

TEST(RunPathDigest, DynamicRunOutcomes) {
  struct Row {
    SchedulerKind kind;
    std::uint64_t pin;
  };
  for (const Row& row : {Row{SchedulerKind::Cfs, 0xa72097401beecdd2},
                         Row{SchedulerKind::Dike, 0x1b03b1dfe0733e73},
                         Row{SchedulerKind::DikeAF, 0x50589729b4cb5fc7}}) {
    DynamicRunSpec spec;
    spec.workloadId = 2;
    spec.kind = row.kind;
    spec.scale = 0.1;
    // One wave mid-run and one after the base workload drained, so the
    // run must hold open across an idle gap.
    spec.arrivals = {Arrival{2'000, "jacobi", 8, 0.1},
                     Arrival{40'000, "hotspot", 8, 0.05}};
    const RunMetrics m = runDynamicWorkload(spec);
    EXPECT_EQ(m.processes.size(), 7u);  // 5 base + 2 arrivals
    EXPECT_GT(m.makespan, 40'000);
    expectPin(std::string{toString(row.kind)} + " dynamic outcome",
              outcomeDigest(m), row.pin);
  }
}

TEST(RunPathDigest, DvfsRunOutcomes) {
  struct Row {
    SchedulerKind kind;
    std::uint64_t pin;
  };
  for (const Row& row : {Row{SchedulerKind::Cfs, 0xcf4c28e8159632cd},
                         Row{SchedulerKind::Dike, 0xe91aa58ff80808aa},
                         Row{SchedulerKind::DikeAF, 0x45848e3c49c9be09}}) {
    DvfsRunSpec spec;
    spec.workloadId = 2;
    spec.kind = row.kind;
    spec.scale = 0.1;
    spec.script = {FrequencyChange{2'000, 1, 1.21},
                   FrequencyChange{6'000, 0, 1.6}};
    expectPin(std::string{toString(row.kind)} + " DVFS outcome",
              outcomeDigest(runDvfsWorkload(spec)), row.pin);
  }
}

}  // namespace
}  // namespace dike::exp
