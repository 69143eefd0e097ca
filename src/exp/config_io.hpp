// JSON experiment configuration: the reproducible-run format behind the
// dike_run tool (the analogue of the paper's released running scripts).
//
// Schema (all fields optional unless noted):
//   {
//     "experiment":    "name",
//     "workloads":     [1, 2, 16] | "all" | "B" | "UC" | "UM",
//     "schedulers":    ["cfs", "dio", "dike", "dike-af", "dike-ap",
//                       "random", "static-oracle"],
//     "scale":         0.5,
//     "seed":          42,
//     "reps":          1,
//     "heterogeneous": true,
//     "threadsPerApp": 8,
//     "topology":      [ { "sockets": 8, "physicalCores": 32, "smtWays": 1,
//                          "freqGhz": 2.33, "type": "fast" }, ... ],
//     "machine": { "smtSharedFactor": .., "migrationStallTicks": ..,
//                  "cacheColdTicks": .., "cacheColdFactor": ..,
//                  "cacheColdSlowdown": .., "conflictSpread": ..,
//                  "llcPerSocketMB": .., "llcPressureFactor": ..,
//                  "controllerAccessesPerSec": ..,
//                  "socketLinkAccessesPerSec": ..,
//                  "measurementNoiseSigma": .. },
//     "dike":    { "swapSize": .., "quantaLengthMs": ..,
//                  "fairnessThreshold": .., "swapOhMs": ..,
//                  "cooldownQuanta": .., "minCooldownMs": ..,
//                  "requirePositiveProfit": .., "rotateWhenNoViolator": ..,
//                  "pairRateMargin": .., "useFreeCores": ..,
//                  "cluster": { "clusters": .., "rebalanceQuanta": ..,
//                               "rebalanceThreshold": ..,
//                               "rebalanceStreak": ..,
//                               "rebalanceBudget": .. } },
//     "telemetry": { "enabled": false, "quantumMetrics": "qm.csv",
//                    "traceOut": "chrome.json", "eventsCsv": "events.csv",
//                    "registryOut": "registry.json",
//                    "traceCapacity": 1048576, "livePublish": false },
//     "slo":     { "enabled": false, "maxFairnessSpread": 1.25,
//                  "maxPredictionAbsError": 0.0, "windowQuanta": 100,
//                  "warmupQuanta": 0 },
//     "faults":  { "seed": 1, "window": {"startTick": .., "endTick": ..},
//                  "samples": { "dropProbability": .., ... },
//                  "actuation": { "swapFailProbability": .., ... },
//                  "cores": { "freqDipProbability": .., ... },
//                  "churn": { "arrivals": .., ... } }   // see fault_plan.hpp
//   }
//
// Telemetry run outputs (quantumMetrics/traceOut/eventsCsv) attach to the
// experiment's *first* cell — first listed workload and scheduler, rep 0 —
// so a one-cell config records exactly the run you asked for. "enabled"
// turns on the process-wide counter/timer registry for the whole grid;
// "registryOut" dumps it after the run (dike_run).
#pragma once

#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "telemetry/slo.hpp"
#include "util/json.hpp"

namespace dike::exp {

/// Observability settings for an experiment (the "telemetry" section).
struct ExperimentTelemetry {
  /// Turn on the process-wide counter/timer registry for the whole grid.
  bool enabled = false;
  std::string quantumMetrics;  ///< per-quantum stream path (csv/jsonl)
  std::string traceOut;        ///< Chrome trace_event JSON path
  std::string eventsCsv;       ///< raw event CSV path (dike_trace input)
  std::string registryOut;     ///< registry JSON dump path (dike_run)
  std::size_t traceCapacity = std::size_t{1} << 20;
  /// Publish per-quantum live events into the ring/aggregator plane
  /// (dike_run --live-metrics implies this for the telemetry-carrying run).
  bool livePublish = false;

  /// True when some single run must carry telemetry attachments (file
  /// outputs or the live ring publisher).
  [[nodiscard]] bool anyRunOutput() const noexcept {
    return !quantumMetrics.empty() || !traceOut.empty() ||
           !eventsCsv.empty() || livePublish;
  }
  /// The per-run attachment view of these settings.
  [[nodiscard]] RunTelemetry runTelemetry() const {
    RunTelemetry t;
    t.quantumMetricsPath = quantumMetrics;
    t.chromeTracePath = traceOut;
    t.eventsCsvPath = eventsCsv;
    t.traceCapacity = traceCapacity;
    t.livePublish = livePublish;
    return t;
  }
};

struct ExperimentConfig {
  std::string name = "experiment";
  std::vector<int> workloadIds;      // default: all 16
  std::vector<SchedulerKind> kinds;  // default: the paper's five
  double scale = 0.5;
  std::uint64_t seed = 42;
  int reps = 1;
  bool heterogeneous = true;
  /// Threads per application (the paper's 8; large-machine sweeps raise it
  /// so thousands of threads actually contend).
  int threadsPerApp = 8;
  /// Explicit socket list (the "topology" section, each entry optionally
  /// repeated via "sockets"); empty = the paper testbed.
  std::vector<sim::SocketSpec> topology;
  sim::MachineConfig machine{};
  core::DikeConfig dike{};
  ExperimentTelemetry telemetry{};
  /// Fairness SLO targets (the "slo" section); evaluated online by the
  /// aggregator during --live-metrics runs and synchronously by the soak
  /// harness. Disabled by default.
  telemetry::SloConfig slo{};
  /// Fault plan applied to every run of the grid (including the internal
  /// CFS baseline, so comparisons stay within-condition). Unset = no
  /// injection, byte-identical to configs without the section.
  std::optional<fault::FaultPlan> faults;
};

/// Decode a configuration document. Throws std::runtime_error with a
/// descriptive message on unknown scheduler names, bad workload selectors,
/// or out-of-range values.
[[nodiscard]] ExperimentConfig parseExperimentConfig(
    const util::JsonValue& document);

/// Parse a scheduler name ("dike-af"...). Throws on unknown names.
[[nodiscard]] SchedulerKind schedulerKindFromName(std::string_view name);

/// The spec of one run of the grid: `workloadId` under `kind`, repetition
/// `rep` (seed + 1000 * rep), carrying every machine, topology, scheduler
/// and fault setting of `config` and no telemetry. The grid and dike_run's
/// single checkpointed run both build their runs from it.
[[nodiscard]] RunSpec runSpecFor(const ExperimentConfig& config,
                                 int workloadId, SchedulerKind kind,
                                 int rep = 0);

/// One (workload, scheduler) cell of an experiment, averaged over reps.
struct ExperimentCell {
  int workloadId = 0;
  SchedulerKind kind = SchedulerKind::Cfs;
  double fairness = 0.0;
  double speedupVsCfs = 0.0;  ///< 0 when CFS was not part of the experiment
  double swaps = 0.0;
  double makespanSeconds = 0.0;
};

/// Run the full grid. The CFS baseline is always run internally (per
/// workload and rep) so speedups are well-defined even when "cfs" is not
/// listed.
[[nodiscard]] std::vector<ExperimentCell> runExperiment(
    const ExperimentConfig& config);

/// Resumable/parallel variant. With a non-empty sweepStateFile, every
/// completed run's metrics are persisted there (see runWorkloadsParallel
/// in exp/parallel.hpp), so a killed sweep rerun with the same config
/// skips finished runs; the file is deleted on completion, and a state
/// file written for a different config is rejected. jobs <= 0 picks
/// defaultJobs(); 1 runs sequentially. Results are identical to
/// runExperiment(config) regardless of jobs or interruption.
[[nodiscard]] std::vector<ExperimentCell> runExperiment(
    const ExperimentConfig& config, const std::string& sweepStateFile,
    int jobs);

/// Serialise results for the "json" output option.
[[nodiscard]] util::JsonValue toJson(const ExperimentConfig& config,
                                     const std::vector<ExperimentCell>& cells);

}  // namespace dike::exp
