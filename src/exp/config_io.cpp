#include "exp/config_io.hpp"

#include <stdexcept>

#include "exp/parallel.hpp"
#include "util/stats.hpp"
#include "workload/workloads.hpp"

namespace dike::exp {

SchedulerKind schedulerKindFromName(std::string_view name) {
  for (const SchedulerKind kind :
       {SchedulerKind::Cfs, SchedulerKind::Dio, SchedulerKind::Dike,
        SchedulerKind::DikeAF, SchedulerKind::DikeAP, SchedulerKind::Random,
        SchedulerKind::StaticOracle, SchedulerKind::Suspension}) {
    if (toString(kind) == name) return kind;
  }
  throw std::runtime_error{"unknown scheduler: " + std::string{name}};
}

namespace {

std::vector<int> decodeWorkloads(const util::JsonValue& document) {
  const auto field = document.get("workloads");
  std::vector<int> ids;
  if (!field || (field->isString() && field->asString() == "all")) {
    for (const wl::WorkloadSpec& w : wl::workloadTable()) ids.push_back(w.id);
    return ids;
  }
  if (field->isString()) {
    const std::string& cls = field->asString();
    for (const wl::WorkloadSpec& w : wl::workloadTable())
      if (toString(w.cls) == cls) ids.push_back(w.id);
    if (ids.empty())
      throw std::runtime_error{"unknown workload selector: " + cls};
    return ids;
  }
  if (!field->isArray())
    throw std::runtime_error{"'workloads' must be an array or selector string"};
  for (const util::JsonValue& v : field->asArray()) {
    if (!v.isNumber())
      throw std::runtime_error{"'workloads' entries must be numbers"};
    const int id = static_cast<int>(v.asNumber());
    (void)wl::workload(id);  // validates the range
    ids.push_back(id);
  }
  if (ids.empty()) throw std::runtime_error{"'workloads' is empty"};
  return ids;
}

std::vector<SchedulerKind> decodeSchedulers(const util::JsonValue& document) {
  const auto field = document.get("schedulers");
  if (!field) return allSchedulerKinds();
  if (!field->isArray())
    throw std::runtime_error{"'schedulers' must be an array of names"};
  std::vector<SchedulerKind> kinds;
  for (const util::JsonValue& v : field->asArray())
    kinds.push_back(schedulerKindFromName(v.asString()));
  if (kinds.empty()) throw std::runtime_error{"'schedulers' is empty"};
  return kinds;
}

void decodeMachine(const util::JsonValue& m, sim::MachineConfig& out) {
  out.smtSharedFactor = m.numberOr("smtSharedFactor", out.smtSharedFactor);
  out.migrationStallTicks = static_cast<util::Tick>(
      m.numberOr("migrationStallTicks",
                 static_cast<double>(out.migrationStallTicks)));
  out.cacheColdTicks = static_cast<util::Tick>(m.numberOr(
      "cacheColdTicks", static_cast<double>(out.cacheColdTicks)));
  out.cacheColdFactor = m.numberOr("cacheColdFactor", out.cacheColdFactor);
  out.cacheColdSlowdown =
      m.numberOr("cacheColdSlowdown", out.cacheColdSlowdown);
  out.conflictSpread = m.numberOr("conflictSpread", out.conflictSpread);
  out.llcPerSocketMB = m.numberOr("llcPerSocketMB", out.llcPerSocketMB);
  out.llcPressureFactor =
      m.numberOr("llcPressureFactor", out.llcPressureFactor);
  out.memory.controllerAccessesPerSec = m.numberOr(
      "controllerAccessesPerSec", out.memory.controllerAccessesPerSec);
  out.memory.socketLinkAccessesPerSec = m.numberOr(
      "socketLinkAccessesPerSec", out.memory.socketLinkAccessesPerSec);
  out.measurementNoiseSigma =
      m.numberOr("measurementNoiseSigma", out.measurementNoiseSigma);
  out.tickLeaping = m.boolOr("tickLeaping", out.tickLeaping);
  out.utilizationSnapEpsilon =
      m.numberOr("utilizationSnapEpsilon", out.utilizationSnapEpsilon);
}

void decodeDike(const util::JsonValue& d, core::DikeConfig& out) {
  out.params.swapSize = d.intOr("swapSize", out.params.swapSize);
  out.params.quantaLengthMs =
      d.intOr("quantaLengthMs", out.params.quantaLengthMs);
  out.fairnessThreshold =
      d.numberOr("fairnessThreshold", out.fairnessThreshold);
  out.swapOhMs = d.numberOr("swapOhMs", out.swapOhMs);
  out.cooldownQuanta = d.intOr("cooldownQuanta", out.cooldownQuanta);
  out.minCooldownMs = d.intOr("minCooldownMs", out.minCooldownMs);
  out.requirePositiveProfit =
      d.boolOr("requirePositiveProfit", out.requirePositiveProfit);
  out.rotateWhenNoViolator =
      d.boolOr("rotateWhenNoViolator", out.rotateWhenNoViolator);
  out.pairRateMargin = d.numberOr("pairRateMargin", out.pairRateMargin);
  out.useFreeCores = d.boolOr("useFreeCores", out.useFreeCores);
  if (const auto o = d.get("observer")) {
    out.observer.sanitizeSamples =
        o->boolOr("sanitizeSamples", out.observer.sanitizeSamples);
    out.observer.maxSampleHoldQuanta =
        o->intOr("maxSampleHoldQuanta", out.observer.maxSampleHoldQuanta);
    out.observer.maxPlausibleRate =
        o->numberOr("maxPlausibleRate", out.observer.maxPlausibleRate);
  }
  if (const auto c = d.get("cluster")) {
    out.cluster.clusters = c->intOr("clusters", out.cluster.clusters);
    if (out.cluster.clusters < 0)
      throw std::runtime_error{"'dike.cluster.clusters' must be >= 0"};
    out.cluster.rebalanceQuanta =
        c->intOr("rebalanceQuanta", out.cluster.rebalanceQuanta);
    out.cluster.rebalanceThreshold =
        c->numberOr("rebalanceThreshold", out.cluster.rebalanceThreshold);
    out.cluster.rebalanceStreak =
        c->intOr("rebalanceStreak", out.cluster.rebalanceStreak);
    out.cluster.rebalanceBudget =
        c->intOr("rebalanceBudget", out.cluster.rebalanceBudget);
    out.cluster.decideJobs = c->intOr("decideJobs", out.cluster.decideJobs);
    if (out.cluster.decideJobs < 0)
      throw std::runtime_error{
          "'dike.cluster.decideJobs' must be >= 0 (0 = DIKE_JOBS/auto)"};
  }
  if (const auto r = d.get("resilience")) {
    out.resilience.divergenceWatchdog =
        r->boolOr("divergenceWatchdog", out.resilience.divergenceWatchdog);
    out.resilience.divergenceErrorThreshold = r->numberOr(
        "divergenceErrorThreshold", out.resilience.divergenceErrorThreshold);
    out.resilience.divergenceQuanta =
        r->intOr("divergenceQuanta", out.resilience.divergenceQuanta);
    out.resilience.fairnessWatchdog =
        r->boolOr("fairnessWatchdog", out.resilience.fairnessWatchdog);
    out.resilience.fairnessStallQuanta =
        r->intOr("fairnessStallQuanta", out.resilience.fairnessStallQuanta);
    out.resilience.fallbackQuanta =
        r->intOr("fallbackQuanta", out.resilience.fallbackQuanta);
    out.resilience.failedActuationCooldownQuanta =
        r->intOr("failedActuationCooldownQuanta",
                 out.resilience.failedActuationCooldownQuanta);
  }
}

std::vector<sim::SocketSpec> decodeTopology(const util::JsonValue& field) {
  if (!field.isArray())
    throw std::runtime_error{"'topology' must be an array of socket specs"};
  std::vector<sim::SocketSpec> sockets;
  for (const util::JsonValue& v : field.asArray()) {
    if (!v.isObject())
      throw std::runtime_error{"'topology' entries must be objects"};
    sim::SocketSpec spec;
    const int repeat = v.intOr("sockets", 1);
    if (repeat < 1)
      throw std::runtime_error{"'topology[].sockets' must be >= 1"};
    spec.physicalCores = v.intOr("physicalCores", spec.physicalCores);
    if (spec.physicalCores < 1)
      throw std::runtime_error{"'topology[].physicalCores' must be >= 1"};
    spec.smtWays = v.intOr("smtWays", spec.smtWays);
    if (spec.smtWays < 1)
      throw std::runtime_error{"'topology[].smtWays' must be >= 1"};
    spec.freqGhz = v.numberOr("freqGhz", spec.freqGhz);
    if (spec.freqGhz <= 0.0)
      throw std::runtime_error{"'topology[].freqGhz' must be > 0"};
    const std::string type = v.stringOr("type", "fast");
    if (type == "fast")
      spec.type = sim::CoreType::Fast;
    else if (type == "slow")
      spec.type = sim::CoreType::Slow;
    else
      throw std::runtime_error{"'topology[].type' must be 'fast' or 'slow'"};
    for (int i = 0; i < repeat; ++i) sockets.push_back(spec);
  }
  if (sockets.empty()) throw std::runtime_error{"'topology' is empty"};
  return sockets;
}

void decodeTelemetry(const util::JsonValue& t, ExperimentTelemetry& out) {
  out.enabled = t.boolOr("enabled", out.enabled);
  out.quantumMetrics = t.stringOr("quantumMetrics", out.quantumMetrics);
  out.traceOut = t.stringOr("traceOut", out.traceOut);
  out.eventsCsv = t.stringOr("eventsCsv", out.eventsCsv);
  out.registryOut = t.stringOr("registryOut", out.registryOut);
  out.livePublish = t.boolOr("livePublish", out.livePublish);
  const double capacity = t.numberOr(
      "traceCapacity", static_cast<double>(out.traceCapacity));
  if (capacity < 1.0)
    throw std::runtime_error{"'telemetry.traceCapacity' must be >= 1"};
  out.traceCapacity = static_cast<std::size_t>(capacity);
}

}  // namespace

ExperimentConfig parseExperimentConfig(const util::JsonValue& document) {
  if (!document.isObject())
    throw std::runtime_error{"experiment config must be a JSON object"};
  ExperimentConfig config;
  config.name = document.stringOr("experiment", config.name);
  config.workloadIds = decodeWorkloads(document);
  config.kinds = decodeSchedulers(document);
  config.scale = document.numberOr("scale", config.scale);
  if (config.scale <= 0.0) throw std::runtime_error{"'scale' must be > 0"};
  config.seed =
      static_cast<std::uint64_t>(document.numberOr("seed", 42.0));
  config.reps = document.intOr("reps", 1);
  if (config.reps < 1) throw std::runtime_error{"'reps' must be >= 1"};
  config.heterogeneous = document.boolOr("heterogeneous", true);
  config.threadsPerApp = document.intOr("threadsPerApp", config.threadsPerApp);
  if (config.threadsPerApp < 1)
    throw std::runtime_error{"'threadsPerApp' must be >= 1"};
  if (const auto topology = document.get("topology"))
    config.topology = decodeTopology(*topology);
  if (const auto machine = document.get("machine"))
    decodeMachine(*machine, config.machine);
  if (const auto dike = document.get("dike")) decodeDike(*dike, config.dike);
  if (const auto telemetry = document.get("telemetry"))
    decodeTelemetry(*telemetry, config.telemetry);
  if (const auto slo = document.get("slo"))
    config.slo = telemetry::parseSloConfig(*slo);
  if (const auto faults = document.get("faults"))
    config.faults = fault::parseFaultPlan(*faults);
  return config;
}

RunSpec runSpecFor(const ExperimentConfig& config, int workloadId,
                   SchedulerKind kind, int rep) {
  RunSpec spec;
  spec.workloadId = workloadId;
  spec.kind = kind;
  spec.scale = config.scale;
  spec.seed = config.seed + static_cast<std::uint64_t>(rep) * 1000;
  spec.heterogeneous = config.heterogeneous;
  spec.topology = config.topology;
  spec.threadsPerApp = config.threadsPerApp;
  spec.machine = config.machine;
  spec.params = config.dike.params;
  spec.dikeConfig = config.dike;
  spec.faults = config.faults;
  return spec;
}

std::vector<ExperimentCell> runExperiment(const ExperimentConfig& config) {
  return runExperiment(config, std::string{}, 1);
}

std::vector<ExperimentCell> runExperiment(const ExperimentConfig& config,
                                          const std::string& sweepStateFile,
                                          int jobs) {
  // Flatten the grid into share-nothing specs: per (workload, rep) one
  // internal CFS baseline plus one spec per non-CFS scheduler. The pool
  // can then run them in any order — and a killed sweep can resume — with
  // aggregation deferred until every index has its metrics.
  struct CellRef {
    int workloadId;
    SchedulerKind kind;
    std::size_t specIndex;
    std::size_t baselineIndex;
  };
  std::vector<RunSpec> specs;
  std::vector<CellRef> refs;
  // Telemetry run outputs attach to exactly one run: the first listed
  // scheduler on the first listed workload, rep 0. When that scheduler is
  // CFS, the internally-run baseline is that run.
  bool telemetryPending = config.telemetry.anyRunOutput();
  const SchedulerKind telemetryKind =
      config.kinds.empty() ? SchedulerKind::Cfs : config.kinds.front();
  for (const int workloadId : config.workloadIds) {
    for (int rep = 0; rep < config.reps; ++rep) {
      RunSpec spec = runSpecFor(config, workloadId, SchedulerKind::Cfs, rep);
      if (telemetryPending && telemetryKind == SchedulerKind::Cfs) {
        spec.telemetry = config.telemetry.runTelemetry();
        telemetryPending = false;
      }
      const std::size_t baselineIndex = specs.size();
      specs.push_back(spec);
      spec.telemetry = RunTelemetry{};

      for (const SchedulerKind kind : config.kinds) {
        if (kind == SchedulerKind::Cfs) {
          refs.push_back({workloadId, kind, baselineIndex, baselineIndex});
          continue;
        }
        spec.kind = kind;
        if (telemetryPending && kind == telemetryKind) {
          spec.telemetry = config.telemetry.runTelemetry();
          telemetryPending = false;
        }
        refs.push_back({workloadId, kind, specs.size(), baselineIndex});
        specs.push_back(spec);
        spec.telemetry = RunTelemetry{};
      }
    }
  }

  const std::vector<RunMetrics> metrics =
      runWorkloadsParallel(specs, jobs, sweepStateFile);

  std::vector<ExperimentCell> cells;
  for (const int workloadId : config.workloadIds) {
    std::map<SchedulerKind, util::OnlineStats> fairness;
    std::map<SchedulerKind, util::OnlineStats> speedups;
    std::map<SchedulerKind, util::OnlineStats> swaps;
    std::map<SchedulerKind, util::OnlineStats> makespans;
    for (const CellRef& ref : refs) {
      if (ref.workloadId != workloadId) continue;
      const RunMetrics& m = metrics[ref.specIndex];
      const RunMetrics& baseline = metrics[ref.baselineIndex];
      fairness[ref.kind].add(m.fairness);
      speedups[ref.kind].add(speedup(baseline.makespan, m.makespan));
      swaps[ref.kind].add(static_cast<double>(m.swaps));
      makespans[ref.kind].add(util::ticksToSeconds(m.makespan));
    }
    for (const SchedulerKind kind : config.kinds) {
      ExperimentCell cell;
      cell.workloadId = workloadId;
      cell.kind = kind;
      cell.fairness = fairness[kind].mean();
      cell.speedupVsCfs = speedups[kind].mean();
      cell.swaps = swaps[kind].mean();
      cell.makespanSeconds = makespans[kind].mean();
      cells.push_back(cell);
    }
  }
  return cells;
}

util::JsonValue toJson(const ExperimentConfig& config,
                       const std::vector<ExperimentCell>& cells) {
  util::JsonArray rows;
  for (const ExperimentCell& cell : cells) {
    util::JsonObject row;
    row.emplace("workload", wl::workload(cell.workloadId).name);
    row.emplace("scheduler", std::string{toString(cell.kind)});
    row.emplace("fairness", cell.fairness);
    row.emplace("speedup_vs_cfs", cell.speedupVsCfs);
    row.emplace("swaps", cell.swaps);
    row.emplace("makespan_s", cell.makespanSeconds);
    rows.emplace_back(std::move(row));
  }
  util::JsonObject doc;
  doc.emplace("experiment", config.name);
  doc.emplace("scale", config.scale);
  doc.emplace("seed", static_cast<double>(config.seed));
  doc.emplace("reps", config.reps);
  doc.emplace("results", std::move(rows));
  return util::JsonValue{std::move(doc)};
}

}  // namespace dike::exp
