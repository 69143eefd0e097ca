#include "exp/config_io.hpp"

#include <gtest/gtest.h>

namespace dike::exp {
namespace {

using util::parseJson;

TEST(ConfigIo, DefaultsWhenEmpty) {
  const ExperimentConfig config = parseExperimentConfig(parseJson("{}"));
  EXPECT_EQ(config.workloadIds.size(), 16u);
  EXPECT_EQ(config.kinds, allSchedulerKinds());
  EXPECT_DOUBLE_EQ(config.scale, 0.5);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_EQ(config.reps, 1);
  EXPECT_TRUE(config.heterogeneous);
}

TEST(ConfigIo, WorkloadSelectors) {
  EXPECT_EQ(parseExperimentConfig(parseJson(R"({"workloads":"all"})"))
                .workloadIds.size(),
            16u);
  EXPECT_EQ(parseExperimentConfig(parseJson(R"({"workloads":"B"})"))
                .workloadIds.size(),
            6u);
  EXPECT_EQ(parseExperimentConfig(parseJson(R"({"workloads":"UC"})"))
                .workloadIds,
            (std::vector<int>{7, 8, 9, 10, 11}));
  EXPECT_EQ(parseExperimentConfig(parseJson(R"({"workloads":[3,12]})"))
                .workloadIds,
            (std::vector<int>{3, 12}));
}

TEST(ConfigIo, SchedulerNames) {
  const ExperimentConfig config = parseExperimentConfig(
      parseJson(R"({"schedulers":["dike-af","random","static-oracle"]})"));
  EXPECT_EQ(config.kinds,
            (std::vector<SchedulerKind>{SchedulerKind::DikeAF,
                                        SchedulerKind::Random,
                                        SchedulerKind::StaticOracle}));
  EXPECT_EQ(schedulerKindFromName("cfs"), SchedulerKind::Cfs);
  EXPECT_THROW({ [[maybe_unused]] auto k = schedulerKindFromName("bogus"); },
               std::runtime_error);
}

TEST(ConfigIo, MachineAndDikeOverrides) {
  const ExperimentConfig config = parseExperimentConfig(parseJson(R"({
    "machine": {"conflictSpread": 0.05, "llcPerSocketMB": 12,
                "controllerAccessesPerSec": 1e8},
    "dike": {"swapSize": 4, "quantaLengthMs": 200,
             "fairnessThreshold": 0.1, "useFreeCores": false}
  })"));
  EXPECT_DOUBLE_EQ(config.machine.conflictSpread, 0.05);
  EXPECT_DOUBLE_EQ(config.machine.llcPerSocketMB, 12.0);
  EXPECT_DOUBLE_EQ(config.machine.memory.controllerAccessesPerSec, 1e8);
  EXPECT_EQ(config.dike.params.swapSize, 4);
  EXPECT_EQ(config.dike.params.quantaLengthMs, 200);
  EXPECT_DOUBLE_EQ(config.dike.fairnessThreshold, 0.1);
  EXPECT_FALSE(config.dike.useFreeCores);
  // Untouched fields keep their defaults.
  EXPECT_DOUBLE_EQ(config.dike.swapOhMs, core::DikeConfig{}.swapOhMs);
}

// Every run of a config, grid cell or dike_run's checkpointed single run,
// carries the whole config: topology, threads per app, machine, Dike and
// fault settings.
TEST(ConfigIo, RunSpecForCarriesTheWholeConfig) {
  const ExperimentConfig config = parseExperimentConfig(parseJson(R"({
    "scale": 0.2, "seed": 9, "threadsPerApp": 6, "heterogeneous": false,
    "topology": [{"sockets": 4, "physicalCores": 8, "smtWays": 1,
                  "freqGhz": 2.33, "type": "fast"}],
    "machine": {"conflictSpread": 0.05},
    "dike": {"swapSize": 4, "cluster": {"clusters": 4}},
    "faults": {"churn": {"arrivals": 2}}
  })"));
  const RunSpec spec = runSpecFor(config, 3, SchedulerKind::DikeAF, 2);
  EXPECT_EQ(spec.workloadId, 3);
  EXPECT_EQ(spec.kind, SchedulerKind::DikeAF);
  EXPECT_DOUBLE_EQ(spec.scale, 0.2);
  EXPECT_EQ(spec.seed, 2009u);
  EXPECT_FALSE(spec.heterogeneous);
  EXPECT_EQ(spec.topology.size(), 4u);
  EXPECT_EQ(spec.threadsPerApp, 6);
  EXPECT_DOUBLE_EQ(spec.machine.conflictSpread, 0.05);
  EXPECT_EQ(spec.params.swapSize, 4);
  ASSERT_TRUE(spec.dikeConfig.has_value());
  EXPECT_EQ(spec.dikeConfig->cluster.clusters, 4);
  ASSERT_TRUE(spec.faults.has_value());
  EXPECT_EQ(spec.faults->churn.arrivals, 2);
  EXPECT_FALSE(spec.telemetry.any());
}

TEST(ConfigIo, LivePublishAndSloSectionsParse) {
  const ExperimentConfig config = parseExperimentConfig(parseJson(
      R"({"telemetry": {"enabled": true, "livePublish": true},
          "slo": {"enabled": true, "maxFairnessSpread": 1.5,
                  "windowQuanta": 50, "warmupQuanta": 10}})"));
  EXPECT_TRUE(config.telemetry.enabled);
  EXPECT_TRUE(config.telemetry.livePublish);
  EXPECT_TRUE(config.telemetry.anyRunOutput())
      << "livePublish alone must attach run telemetry to a cell";
  EXPECT_TRUE(config.slo.enabled);
  EXPECT_DOUBLE_EQ(config.slo.maxFairnessSpread, 1.5);
  EXPECT_EQ(config.slo.windowQuanta, 50);
  EXPECT_EQ(config.slo.warmupQuanta, 10);
  // Both sections default to off/disabled when absent.
  const ExperimentConfig defaults = parseExperimentConfig(parseJson("{}"));
  EXPECT_FALSE(defaults.telemetry.livePublish);
  EXPECT_FALSE(defaults.slo.enabled);
}

TEST(ConfigIo, RejectsInvalidDocuments) {
  for (const char* bad : {
           "[]",
           R"({"workloads":"XX"})",
           R"({"workloads":[99]})",
           R"({"workloads":[]})",
           R"({"workloads":["wl1"]})",
           R"({"schedulers":["nope"]})",
           R"({"schedulers":[]})",
           R"({"schedulers":"dike"})",
           R"({"scale":0})",
           R"({"reps":0})",
           R"({"slo":{"enabled":"yes"}})",
           R"({"slo":{"maxFairnessSpread":0.5}})",
           R"({"slo":{"windowQuanta":0}})",
           R"({"slo":"tight"})",
       }) {
    EXPECT_THROW(
        { [[maybe_unused]] auto c = parseExperimentConfig(parseJson(bad)); },
        std::exception)
        << bad;
  }
}

TEST(ConfigIo, RunExperimentProducesGrid) {
  ExperimentConfig config;
  config.workloadIds = {2};
  config.kinds = {SchedulerKind::Cfs, SchedulerKind::Dike};
  config.scale = 0.1;
  const std::vector<ExperimentCell> cells = runExperiment(config);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].kind, SchedulerKind::Cfs);
  EXPECT_DOUBLE_EQ(cells[0].speedupVsCfs, 1.0);
  EXPECT_EQ(cells[1].kind, SchedulerKind::Dike);
  EXPECT_GT(cells[1].fairness, 0.0);
  EXPECT_GT(cells[1].speedupVsCfs, 0.0);
}

TEST(ConfigIo, SpeedupsDefinedWithoutCfsListed) {
  ExperimentConfig config;
  config.workloadIds = {2};
  config.kinds = {SchedulerKind::Dike};
  config.scale = 0.1;
  const std::vector<ExperimentCell> cells = runExperiment(config);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_GT(cells[0].speedupVsCfs, 0.5);
  EXPECT_LT(cells[0].speedupVsCfs, 2.0);
}

TEST(ConfigIo, ToJsonRoundTrips) {
  ExperimentConfig config;
  config.name = "t";
  config.workloadIds = {1};
  config.kinds = {SchedulerKind::Cfs};
  ExperimentCell cell;
  cell.workloadId = 1;
  cell.kind = SchedulerKind::Cfs;
  cell.fairness = 0.9;
  const util::JsonValue doc = toJson(config, {cell});
  const util::JsonValue reparsed = util::parseJson(doc.dump());
  EXPECT_EQ(reparsed.stringOr("experiment", ""), "t");
  const util::JsonArray results = reparsed.get("results")->asArray();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].stringOr("workload", ""), "wl1");
  EXPECT_DOUBLE_EQ(results[0].numberOr("fairness", 0.0), 0.9);
}

}  // namespace
}  // namespace dike::exp
