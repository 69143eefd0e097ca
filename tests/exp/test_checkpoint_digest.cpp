// Byte pins for checkpoints and reports. Every scheduler kind steps a few
// quanta on the flat paper testbed, on the 8x32 large machine (8 clusters),
// and on the 32-cluster 4096-thread machine; the FNV-1a digest of its
// checkpoint payload — and, where the run is short enough to finish, of its
// final report — must equal a constant recorded from a known-good build.
//
// The replay suite proves a run agrees with *itself* across checkpoint and
// restore; these pins prove a refactor of the decide path or the codec agrees
// with the code it replaced, and every pinned checkpoint must restore to a
// session that saves it again byte for byte. A change that alters the bytes
// on purpose (a schema bump) regenerates the table from the failure
// messages, which print each row in source form. Labelled "replay" with the
// rest of that tier.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "ckpt/checkpoint.hpp"
#include "exp/replay.hpp"

namespace dike::exp {
namespace {

struct Pin {
  SchedulerKind kind;
  std::uint64_t checkpoint;
  std::uint64_t report;  ///< 0 when the case does not finish its runs
};

struct Kind {
  SchedulerKind kind;
  const char* enumerator;  ///< for printing a drifted row in source form
};

constexpr Kind kEveryKind[] = {
    {SchedulerKind::Cfs, "Cfs"},
    {SchedulerKind::Dio, "Dio"},
    {SchedulerKind::Dike, "Dike"},
    {SchedulerKind::DikeAF, "DikeAF"},
    {SchedulerKind::DikeAP, "DikeAP"},
    {SchedulerKind::Random, "Random"},
    {SchedulerKind::StaticOracle, "StaticOracle"},
    {SchedulerKind::Suspension, "Suspension"}};

sim::SocketSpec socket(int physicalCores, int smtWays, bool fast) {
  sim::SocketSpec s;
  s.physicalCores = physicalCores;
  s.smtWays = smtWays;
  s.freqGhz = fast ? 2.33 : 1.21;
  s.type = fast ? sim::CoreType::Fast : sim::CoreType::Slow;
  return s;
}

core::DikeConfig clustered(int clusters) {
  core::DikeConfig cfg;
  cfg.cluster.clusters = clusters;
  return cfg;
}

RunSpec flatSpec(SchedulerKind kind) {
  RunSpec spec;
  spec.workloadId = 3;
  spec.kind = kind;
  spec.scale = 0.05;
  spec.seed = 42;
  return spec;
}

/// configs/large_machine_8x32.json.
RunSpec largeMachineSpec(SchedulerKind kind) {
  RunSpec spec;
  for (int s = 0; s < 8; ++s) spec.topology.push_back(socket(32, 1, s % 2 == 0));
  spec.workloadId = 2;
  spec.kind = kind;
  spec.scale = 0.1;
  spec.threadsPerApp = 48;
  spec.dikeConfig = clustered(8);
  spec.seed = 42;
  return spec;
}

/// The 8x32 machine with every fault class armed from the first tick, so
/// the clustered pipeline's fallback rotation, failed actuations and
/// sanitizer holds all reach the checkpoint.
RunSpec faultedLargeMachineSpec(SchedulerKind kind) {
  RunSpec spec = largeMachineSpec(kind);
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.samples.dropProbability = 0.05;
  plan.samples.corruptProbability = 0.05;
  plan.samples.stuckAtZeroProbability = 0.02;
  plan.actuation.swapFailProbability = 0.10;
  plan.actuation.migrationFailProbability = 0.10;
  plan.cores.freqDipProbability = 0.02;
  spec.faults = plan;
  return spec;
}

/// 32 sockets x 64 cores x SMT2, alternating fast and slow, four
/// 1024-thread apps, one Dike cluster per socket.
RunSpec machine4096Spec(SchedulerKind kind) {
  RunSpec spec;
  for (int s = 0; s < 32; ++s) spec.topology.push_back(socket(64, 2, s % 2 == 0));
  wl::WorkloadSpec workload;
  workload.name = "scale4096";
  workload.apps = {"stream_omp", "hotspot", "jacobi", "srad"};
  workload.includeKmeans = false;
  spec.customWorkload = workload;
  spec.threadsPerApp = 1024;
  spec.kind = kind;
  spec.dikeConfig = clustered(32);
  spec.seed = 21;
  return spec;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

/// Step every kind up to `quanta` quanta under `makeSpec`, digest the checkpoint
/// payload, check that restoring it saves the same payload again, optionally
/// finish the run and digest its report, and compare against `pins` (one
/// row per kind, in kEveryKind order).
void expectPins(RunSpec (*makeSpec)(SchedulerKind), int quanta, bool finish,
                const std::vector<Pin>& pins) {
  ASSERT_EQ(pins.size(), std::size(kEveryKind));
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const SchedulerKind kind = kEveryKind[i].kind;
    ASSERT_EQ(pins[i].kind, kind) << "pin rows must follow kEveryKind order";
    RunSession session{makeSpec(kind)};
    // Short runs (CFS takes few, long quanta) may end before `quanta`.
    for (int q = 0; q < quanta && session.stepQuantum(); ++q) {
    }
    const std::string payload = session.checkpointPayload();
    const std::uint64_t checkpoint = ckpt::fnv1a64(payload);
    // The load side of the same bytes: restoring this checkpoint and
    // saving again must reproduce it exactly.
    // Per test and process: ctest runs the pinned cases concurrently.
    const std::string path =
        ::testing::TempDir() + "/" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(::getpid()) + ".ckpt";
    session.writeCheckpoint(path);
    EXPECT_TRUE(RunSession::restore(path)->checkpointPayload() == payload)
        << toString(kind) << " does not restore to its own checkpoint";
    std::filesystem::remove(path);
    const std::uint64_t report =
        finish ? ckpt::fnv1a64(runMetricsToJson(session.finish()).dump(2))
               : 0;
    EXPECT_TRUE(checkpoint == pins[i].checkpoint && report == pins[i].report)
        << toString(kind) << " drifted; observed row:\n"
        << "                 {SchedulerKind::" << kEveryKind[i].enumerator
        << ", " << hex(checkpoint) << ", " << hex(report) << "},";
  }
}

TEST(CheckpointDigest, FlatTestbedEveryPolicy) {
  expectPins(&flatSpec, 6, /*finish=*/true,
             {
                 {SchedulerKind::Cfs, 0x2123d11f2f859b2b, 0x97cb40db3a4ef0a8},
                 {SchedulerKind::Dio, 0x01ec42b7a6c7af89, 0x2bf51c41854e7111},
                 {SchedulerKind::Dike, 0x8a1ffa5a65fd9d85, 0x9297f460aac7439c},
                 {SchedulerKind::DikeAF, 0xdff65086ccfab643, 0xaae7f4ea213baf86},
                 {SchedulerKind::DikeAP, 0xe425905f30c93a7a, 0x22dd953995d3072c},
                 {SchedulerKind::Random, 0x929987895eabee14, 0xd5334e4c298a7ea2},
                 {SchedulerKind::StaticOracle, 0xd1c980b3efb40fec, 0xe81c00ea637def16},
                 {SchedulerKind::Suspension, 0x69a0251e025259df, 0xda2b4b9ab93abfd6},
             });
}

TEST(CheckpointDigest, LargeMachine8x32EveryPolicy) {
  expectPins(&largeMachineSpec, 6, /*finish=*/true,
             {
                 {SchedulerKind::Cfs, 0xe979269ab826765b, 0x614fe94b375a0bec},
                 {SchedulerKind::Dio, 0xa0ba8d9b09503b6d, 0x1265f513399d5ccc},
                 {SchedulerKind::Dike, 0xbf06823f829ba934, 0x78619f0663bbbed2},
                 {SchedulerKind::DikeAF, 0xdd7080042eb84781, 0x78619f0663bbbed2},
                 {SchedulerKind::DikeAP, 0x3b71b101ce6b9d6b, 0x78619f0663bbbed2},
                 {SchedulerKind::Random, 0x588609bff18a63c1, 0xc0b4432ec4548059},
                 {SchedulerKind::StaticOracle, 0x32350af4f22edaa9, 0xfc2e5fdc4059d203},
                 {SchedulerKind::Suspension, 0x4a2234af3d37346e, 0x5b40bc3628493045},
             });
}

TEST(CheckpointDigest, FaultedLargeMachine8x32EveryPolicy) {
  expectPins(&faultedLargeMachineSpec, 12, /*finish=*/true,
             {
                 {SchedulerKind::Cfs, 0x33247917ff9e3a46, 0x3193a0b594ba3ebb},
                 {SchedulerKind::Dio, 0x8d2a507658fbbf3f, 0x0068e03e6a97c262},
                 {SchedulerKind::Dike, 0x421a1b753c3cdf70, 0xcc0906c984878fed},
                 {SchedulerKind::DikeAF, 0x75b7813db1feaf3f, 0xcc0906c984878fed},
                 {SchedulerKind::DikeAP, 0x6ad04f179446c34d, 0xcc0906c984878fed},
                 {SchedulerKind::Random, 0x158655c65a156ec2, 0xbd17ad1aa6745547},
                 {SchedulerKind::StaticOracle, 0xafe1193122c590f9, 0x4923cce02891d413},
                 {SchedulerKind::Suspension, 0xb7ae18f1baad0c0d, 0x872fb0f8218a1b9d},
             });
}

TEST(CheckpointDigest, Machine4096ThirtyTwoClustersEveryPolicy) {
  expectPins(&machine4096Spec, 8, /*finish=*/false,
             {
                 {SchedulerKind::Cfs, 0x1d1d2f7cde40e760, 0},
                 {SchedulerKind::Dio, 0x26802c12eaf6446e, 0},
                 {SchedulerKind::Dike, 0xc3b56374222b98ee, 0},
                 {SchedulerKind::DikeAF, 0xc206c9e80082390d, 0},
                 {SchedulerKind::DikeAP, 0xd247e44fcf35cd7b, 0},
                 {SchedulerKind::Random, 0x46072bfbc34a6a61, 0},
                 {SchedulerKind::StaticOracle, 0x55212fd8a5efc748, 0},
                 {SchedulerKind::Suspension, 0x9284b59ba83fa004, 0},
             });
}

}  // namespace
}  // namespace dike::exp
