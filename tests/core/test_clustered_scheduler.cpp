// ClusteredDikeScheduler: the equivalence contract at 1 cluster, cluster
// geometry, multi-cluster aggregates and determinism, and the checkpoint
// round trip (including corrupt-geometry rejection).
#include "core/clustered_scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/archive.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "workload/workloads.hpp"

namespace dike::core {

/// White-box seam (friend of ClusteredDikeScheduler): the rebalancer's
/// warmup early-return is unreachable through onQuantum — every cluster
/// observes during the plan phase, so its observer is always ready by the
/// time rebalance runs — which makes the cadence-counter regression below
/// untestable end to end. The peer drives rebalance directly against
/// never-warmed observers instead.
struct ClusteredSchedulerTestPeer {
  static void resolveGeometry(ClusteredDikeScheduler& s, int coreCount) {
    s.resolveGeometry(coreCount);
  }
  static void rebalance(ClusteredDikeScheduler& s, sched::SchedulerView& v) {
    s.rebalance(v);
  }
  static int quantaSinceRebalance(const ClusteredDikeScheduler& s) {
    return s.quantaSinceRebalance_;
  }
};

namespace {

/// A 4-socket, 16-vcore machine (alternating fast/slow) filled by a
/// 16-thread two-app workload — small enough for fast runs, large enough
/// for 4 real clusters of 4 cores each.
sim::Machine clusterMachine(std::uint64_t seed = 42) {
  std::array<sim::SocketSpec, 4> sockets{};
  for (int s = 0; s < 4; ++s) {
    sockets[static_cast<std::size_t>(s)] = sim::SocketSpec{
        .physicalCores = 4,
        .smtWays = 1,
        .freqGhz = s % 2 == 0 ? 2.33 : 1.21,
        .type = s % 2 == 0 ? sim::CoreType::Fast : sim::CoreType::Slow};
  }
  sim::MachineConfig cfg;
  cfg.seed = seed;
  sim::Machine machine{sim::MachineTopology{sockets}, cfg};
  wl::WorkloadSpec workload;
  workload.id = 0;
  workload.name = "cluster-test";
  workload.apps = {"stream_omp", "hotspot"};
  workload.includeKmeans = false;
  wl::addWorkloadProcesses(machine, workload, /*scale=*/0.4,
                           /*threadsPerApp=*/8);
  sched::placeRandom(machine, seed);
  return machine;
}

DikeConfig clusteredConfig(int clusters) {
  DikeConfig cfg;
  cfg.cluster.clusters = clusters;
  return cfg;
}

std::string stateBytes(const sched::Scheduler& scheduler) {
  ckpt::BinWriter w;
  scheduler.saveState(w);
  return w.take();
}

TEST(ClusteredDikeScheduler, RejectsInvalidClusterKnobs) {
  DikeConfig bad = clusteredConfig(-1);
  EXPECT_THROW(ClusteredDikeScheduler{bad}, std::invalid_argument);
  bad = clusteredConfig(2);
  bad.cluster.rebalanceQuanta = 0;
  EXPECT_THROW(ClusteredDikeScheduler{bad}, std::invalid_argument);
  bad = clusteredConfig(2);
  bad.cluster.rebalanceBudget = -3;
  EXPECT_THROW(ClusteredDikeScheduler{bad}, std::invalid_argument);
}

TEST(ClusteredDikeScheduler, OneClusterIsByteIdenticalToFlat) {
  sim::Machine flatMachine = clusterMachine();
  DikeScheduler flat{DikeConfig{}};
  sched::SchedulerAdapter flatAdapter{flat};
  const sim::RunOutcome flatOutcome = sim::runMachine(flatMachine, flatAdapter);

  sim::Machine clusteredMachine = clusterMachine();
  ClusteredDikeScheduler clustered{clusteredConfig(1)};
  EXPECT_EQ(clustered.name(), flat.name());
  sched::SchedulerAdapter clusteredAdapter{clustered};
  const sim::RunOutcome clusteredOutcome =
      sim::runMachine(clusteredMachine, clusteredAdapter);

  EXPECT_EQ(flatOutcome.finishTick, clusteredOutcome.finishTick);
  EXPECT_EQ(flatMachine.swapCount(), clusteredMachine.swapCount());
  EXPECT_EQ(flatMachine.migrationCount(), clusteredMachine.migrationCount());
  EXPECT_EQ(stateBytes(flat), stateBytes(clustered));
}

TEST(ClusteredDikeScheduler, ResolvesContiguousSocketAlignedGeometry) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  EXPECT_EQ(scheduler.configuredClusters(), 4);
  EXPECT_EQ(scheduler.resolvedClusters(), 0);  // unknown before a quantum

  sched::SchedulerAdapter adapter{scheduler};
  adapter.onQuantum(machine);

  EXPECT_EQ(scheduler.name(), "dike-clustered");
  EXPECT_EQ(scheduler.resolvedClusters(), 4);
  const std::vector<int>& clusterOf = scheduler.clusterOfCore();
  ASSERT_EQ(clusterOf.size(), 16u);
  for (int c = 0; c < 16; ++c) {
    EXPECT_EQ(clusterOf[static_cast<std::size_t>(c)], c / 4) << "core " << c;
  }
}

TEST(ClusteredDikeScheduler, ClusterCountIsCappedAtCoreCount) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(64)};
  sched::SchedulerAdapter adapter{scheduler};
  adapter.onQuantum(machine);
  EXPECT_EQ(scheduler.resolvedClusters(), machine.topology().coreCount());
}

TEST(ClusteredDikeScheduler, AggregatesSumPerClusterPipelines) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  const sim::RunOutcome outcome = sim::runMachine(machine, adapter);
  EXPECT_FALSE(outcome.timedOut);
  // The workload must outlive at least a few quanta or everything below
  // passes vacuously (0 == 0).
  ASSERT_GT(adapter.quantaElapsed(), 2);
  ASSERT_EQ(scheduler.resolvedClusters(), 4);

  std::int64_t childSwaps = 0;
  std::int64_t childQuanta = 0;
  for (int k = 0; k < scheduler.resolvedClusters(); ++k) {
    childSwaps += scheduler.clusterScheduler(k).totalSwaps();
    childQuanta =
        std::max(childQuanta, scheduler.clusterScheduler(k).decisionTotals().quanta);
  }
  EXPECT_EQ(scheduler.totalSwaps(), childSwaps);
  EXPECT_EQ(scheduler.decisionTotals().quanta, adapter.quantaElapsed());
  EXPECT_EQ(childQuanta, adapter.quantaElapsed());
  // The adapter counts every swap exactly once: child views delegate
  // actuations to the parent view, so machine truth and scheduler totals
  // must agree.
  EXPECT_EQ(adapter.totalSwaps(), machine.swapCount());
}

TEST(ClusteredDikeScheduler, RunsAreDeterministic) {
  sim::Machine first = clusterMachine();
  ClusteredDikeScheduler firstScheduler{clusteredConfig(4)};
  sched::SchedulerAdapter firstAdapter{firstScheduler};
  const sim::RunOutcome firstOutcome = sim::runMachine(first, firstAdapter);

  sim::Machine second = clusterMachine();
  ClusteredDikeScheduler secondScheduler{clusteredConfig(4)};
  sched::SchedulerAdapter secondAdapter{secondScheduler};
  const sim::RunOutcome secondOutcome = sim::runMachine(second, secondAdapter);

  EXPECT_EQ(firstOutcome.finishTick, secondOutcome.finishTick);
  EXPECT_EQ(stateBytes(firstScheduler), stateBytes(secondScheduler));
}

TEST(ClusteredDikeScheduler, CheckpointRoundTripsMultiClusterState) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  const std::string saved = stateBytes(scheduler);

  ClusteredDikeScheduler restored{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  restored.loadState(r);
  EXPECT_EQ(restored.resolvedClusters(), scheduler.resolvedClusters());
  EXPECT_EQ(restored.clusterOfCore(), scheduler.clusterOfCore());
  EXPECT_EQ(stateBytes(restored), saved);
}

TEST(ClusteredDikeScheduler, RejectsCorruptGeometry) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  std::string saved = stateBytes(scheduler);

  // Overwrite the serialized cluster count (first i64 named clusterCount)
  // with a negative value: the restore must fail loudly, not resize by a
  // garbage count.
  const std::size_t pos = saved.find("clusterCount");
  ASSERT_NE(pos, std::string::npos);
  std::size_t off = pos + std::string{"clusterCount"}.size();
  const std::uint64_t bad = static_cast<std::uint64_t>(std::int64_t{-5});
  for (int i = 0; i < 8; ++i)
    saved[off + static_cast<std::size_t>(i)] =
        static_cast<char>((bad >> (8 * i)) & 0xFF);

  ClusteredDikeScheduler target{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  EXPECT_THROW(target.loadState(r), ckpt::CheckpointError);
}

/// Overwrite the serialized clusterOfCore vector (a u32 length, then one
/// i64 per core) in place with `map`, which must have the same length.
void patchClusterOfCore(std::string& saved, const std::vector<int>& map) {
  const std::string field = "clusterOfCore";
  const std::size_t pos = saved.find(field);
  ASSERT_NE(pos, std::string::npos);
  std::size_t off = pos + field.size() + 4;
  for (const int k : map) {
    const auto bits = static_cast<std::uint64_t>(std::int64_t{k});
    for (int i = 0; i < 8; ++i)
      saved[off++] = static_cast<char>((bits >> (8 * i)) & 0xFF);
  }
}

TEST(ClusteredDikeScheduler, RejectsNonContiguousClusterMap) {
  // Every map below keeps each entry in range, so only the shape check can
  // catch it: the per-cluster core spans are exact only for clusters
  // 0..K-1 as ascending, contiguous, non-empty runs of cores.
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  const std::string saved = stateBytes(scheduler);
  ASSERT_EQ(scheduler.clusterOfCore(),
            (std::vector<int>{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}));

  const struct {
    const char* what;
    std::vector<int> map;
  } corrupt[] = {
      {"decreasing step", {0, 0, 0, 0, 1, 0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}},
      {"cluster in two runs", {0, 0, 0, 0, 1, 1, 1, 1, 2, 1, 2, 2, 3, 3, 3, 3}},
      {"no core in cluster 0", {1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}},
      {"no core in cluster 2", {0, 0, 0, 0, 1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3}},
      {"no core in cluster 3", {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2}},
  };
  for (const auto& c : corrupt) {
    std::string bytes = saved;
    patchClusterOfCore(bytes, c.map);
    ClusteredDikeScheduler target{clusteredConfig(4)};
    ckpt::BinReader r{bytes};
    EXPECT_THROW(target.loadState(r), ckpt::CheckpointError) << c.what;
  }

  // The unpatched bytes still restore.
  ClusteredDikeScheduler target{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  EXPECT_NO_THROW(target.loadState(r));
}

TEST(ClusteredDikeScheduler, RejectsGeometryOfAnotherMachine) {
  // The 16-core geometry restored onto a 4-core machine: the spans would
  // index past the sample and the view, so the quantum must refuse.
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  adapter.onQuantum(machine);
  const std::string saved = stateBytes(scheduler);

  ClusteredDikeScheduler restored{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  restored.loadState(r);
  sim::Machine small{sim::MachineTopology::smallTestbed(2), sim::MachineConfig{}};
  sched::SchedulerAdapter smallAdapter{restored};
  EXPECT_THROW(smallAdapter.onQuantum(small), std::runtime_error);
}

TEST(ClusteredDikeScheduler, RejectsInvalidDecideJobs) {
  DikeConfig bad = clusteredConfig(2);
  bad.cluster.decideJobs = -1;
  EXPECT_THROW(ClusteredDikeScheduler{bad}, std::invalid_argument);

  ClusteredDikeScheduler scheduler{clusteredConfig(2)};
  EXPECT_EQ(scheduler.decideJobs(), 1);
  EXPECT_THROW(scheduler.setDecideJobs(-1), std::invalid_argument);
  scheduler.setDecideJobs(4);
  EXPECT_EQ(scheduler.decideJobs(), 4);
}

/// The tentpole's equivalence contract in-process: a serial plan phase and
/// a 4-way concurrent one must produce the same run tick for tick — same
/// finish, same actuation counts, and byte-identical scheduler state.
TEST(ClusteredDikeScheduler, DecideJobsDoNotChangeAnyByte) {
  sim::Machine serialMachine = clusterMachine();
  DikeConfig serialCfg = clusteredConfig(4);
  serialCfg.cluster.decideJobs = 1;
  ClusteredDikeScheduler serial{serialCfg};
  sched::SchedulerAdapter serialAdapter{serial};
  const sim::RunOutcome serialOutcome =
      sim::runMachine(serialMachine, serialAdapter);

  sim::Machine pooledMachine = clusterMachine();
  DikeConfig pooledCfg = clusteredConfig(4);
  pooledCfg.cluster.decideJobs = 4;
  ClusteredDikeScheduler pooled{pooledCfg};
  sched::SchedulerAdapter pooledAdapter{pooled};
  const sim::RunOutcome pooledOutcome =
      sim::runMachine(pooledMachine, pooledAdapter);

  EXPECT_EQ(serialOutcome.finishTick, pooledOutcome.finishTick);
  EXPECT_EQ(serialMachine.swapCount(), pooledMachine.swapCount());
  EXPECT_EQ(serialMachine.migrationCount(), pooledMachine.migrationCount());
  EXPECT_EQ(stateBytes(serial), stateBytes(pooled));
}

/// Regression: a not-ready observer used to hit the warmup early-return
/// *after* the cadence counter had already been reset to 0, silently
/// stretching the rebalance cadence to 2x rebalanceQuanta. The counter
/// must stay accumulated across not-ready attempts (retry next quantum)
/// and only reset once every cluster is warm.
TEST(ClusteredDikeScheduler, RebalanceRetriesWhileObserversWarmUp) {
  sim::Machine machine = clusterMachine();
  DikeConfig cfg = clusteredConfig(4);
  cfg.cluster.rebalanceQuanta = 3;
  ClusteredDikeScheduler scheduler{cfg};
  ClusteredSchedulerTestPeer::resolveGeometry(
      scheduler, machine.topology().coreCount());

  // Drive rebalance directly with never-warmed observers. The view is only
  // touched past the cadence and readiness gates, so a dummy sample works.
  sim::QuantumSample sample;
  sched::SchedulerView view{machine, sample};
  for (int q = 1; q <= 2; ++q) {
    ClusteredSchedulerTestPeer::rebalance(scheduler, view);
    EXPECT_EQ(ClusteredSchedulerTestPeer::quantaSinceRebalance(scheduler), q)
        << "below cadence, attempt " << q;
  }
  ClusteredSchedulerTestPeer::rebalance(scheduler, view);
  EXPECT_EQ(ClusteredSchedulerTestPeer::quantaSinceRebalance(scheduler), 3)
      << "not-ready attempt must keep the cadence counter accumulated";
  ClusteredSchedulerTestPeer::rebalance(scheduler, view);
  EXPECT_EQ(ClusteredSchedulerTestPeer::quantaSinceRebalance(scheduler), 4)
      << "every later quantum retries instead of waiting a fresh cadence";

  // One real quantum warms every cluster's observer; the pending attempt
  // then goes through and the counter finally resets.
  sched::SchedulerAdapter adapter{scheduler};
  adapter.onQuantum(machine);
  EXPECT_EQ(ClusteredSchedulerTestPeer::quantaSinceRebalance(scheduler), 0);
}

TEST(ClusteredDikeScheduler, ForeignCoreSentinelNeverLeaksIntoFlatRuns) {
  // Flat-mode child plumbing is bypassed entirely; a full flat run must
  // never see kForeignCore from the public occupant surface.
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(1)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  for (int c = 0; c < machine.topology().coreCount(); ++c)
    EXPECT_GE(machine.coreOccupant(c), -1) << "core " << c;
}

}  // namespace
}  // namespace dike::core
