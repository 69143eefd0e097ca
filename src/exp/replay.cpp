#include "exp/replay.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/clustered_scheduler.hpp"
#include "core/dike_scheduler.hpp"
#include "exp/stream_listener.hpp"
#include "fault/fault_policy.hpp"
#include "sched/placement.hpp"
#include "telemetry/quantum_stream.hpp"

namespace dike::exp {

namespace {

/// 64-bit seeds round-trip as decimal strings: JSON numbers are doubles and
/// silently lose integer precision above 2^53.
std::string u64ToString(std::uint64_t v) { return std::to_string(v); }

std::uint64_t u64FromString(const std::string& text, const char* field) {
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || text.empty())
    throw std::runtime_error{std::string{"run spec field '"} + field +
                             "' is not a valid unsigned integer: '" + text +
                             "'"};
  return v;
}

util::JsonValue machineConfigToJson(const sim::MachineConfig& m) {
  util::JsonObject o;
  o["controllerAccessesPerSec"] = m.memory.controllerAccessesPerSec;
  o["socketLinkAccessesPerSec"] = m.memory.socketLinkAccessesPerSec;
  o["smtSharedFactor"] = m.smtSharedFactor;
  o["migrationStallTicks"] = m.migrationStallTicks;
  o["cacheColdTicks"] = m.cacheColdTicks;
  o["cacheColdFactor"] = m.cacheColdFactor;
  o["cacheColdSlowdown"] = m.cacheColdSlowdown;
  o["llcPerSocketMB"] = m.llcPerSocketMB;
  o["llcPressureFactor"] = m.llcPressureFactor;
  o["conflictSpread"] = m.conflictSpread;
  o["measurementNoiseSigma"] = m.measurementNoiseSigma;
  o["idlePowerW"] = m.idlePowerW;
  o["dynamicPowerW"] = m.dynamicPowerW;
  o["refFreqGhz"] = m.refFreqGhz;
  o["tickLeaping"] = m.tickLeaping;
  o["utilizationSnapEpsilon"] = m.utilizationSnapEpsilon;
  o["seed"] = u64ToString(m.seed);
  return util::JsonValue{std::move(o)};
}

sim::MachineConfig machineConfigFromJson(const util::JsonValue& v) {
  sim::MachineConfig m;
  m.memory.controllerAccessesPerSec = v.numberOr(
      "controllerAccessesPerSec", m.memory.controllerAccessesPerSec);
  m.memory.socketLinkAccessesPerSec = v.numberOr(
      "socketLinkAccessesPerSec", m.memory.socketLinkAccessesPerSec);
  m.smtSharedFactor = v.numberOr("smtSharedFactor", m.smtSharedFactor);
  m.migrationStallTicks = static_cast<util::Tick>(v.numberOr(
      "migrationStallTicks", static_cast<double>(m.migrationStallTicks)));
  m.cacheColdTicks = static_cast<util::Tick>(
      v.numberOr("cacheColdTicks", static_cast<double>(m.cacheColdTicks)));
  m.cacheColdFactor = v.numberOr("cacheColdFactor", m.cacheColdFactor);
  m.cacheColdSlowdown = v.numberOr("cacheColdSlowdown", m.cacheColdSlowdown);
  m.llcPerSocketMB = v.numberOr("llcPerSocketMB", m.llcPerSocketMB);
  m.llcPressureFactor = v.numberOr("llcPressureFactor", m.llcPressureFactor);
  m.conflictSpread = v.numberOr("conflictSpread", m.conflictSpread);
  m.measurementNoiseSigma =
      v.numberOr("measurementNoiseSigma", m.measurementNoiseSigma);
  m.idlePowerW = v.numberOr("idlePowerW", m.idlePowerW);
  m.dynamicPowerW = v.numberOr("dynamicPowerW", m.dynamicPowerW);
  m.refFreqGhz = v.numberOr("refFreqGhz", m.refFreqGhz);
  m.tickLeaping = v.boolOr("tickLeaping", m.tickLeaping);
  m.utilizationSnapEpsilon =
      v.numberOr("utilizationSnapEpsilon", m.utilizationSnapEpsilon);
  if (const auto seed = v.get("seed"))
    m.seed = u64FromString(seed->asString(), "machine.seed");
  return m;
}

util::JsonValue dikeConfigToJson(const core::DikeConfig& c) {
  util::JsonObject o;
  o["swapSize"] = c.params.swapSize;
  o["quantaLengthMs"] = c.params.quantaLengthMs;
  o["fairnessThreshold"] = c.fairnessThreshold;
  o["goal"] = static_cast<int>(c.goal);
  o["swapOhMs"] = c.swapOhMs;
  o["cooldownQuanta"] = c.cooldownQuanta;
  o["minCooldownMs"] = c.minCooldownMs;
  o["requirePositiveProfit"] = c.requirePositiveProfit;
  o["rotateWhenNoViolator"] = c.rotateWhenNoViolator;
  o["pairRateMargin"] = c.pairRateMargin;
  o["useFreeCores"] = c.useFreeCores;
  util::JsonObject obs;
  obs["llcMissThreshold"] = c.observer.llcMissThreshold;
  obs["coreBwDecay"] = c.observer.coreBwDecay;
  obs["symmetricMovingMean"] = c.observer.symmetricMovingMean;
  obs["movingMeanWindow"] = static_cast<int>(c.observer.movingMeanWindow);
  obs["socketShare"] = c.observer.socketShare;
  obs["balanceTolerance"] = c.observer.balanceTolerance;
  obs["threadRateWindow"] = static_cast<int>(c.observer.threadRateWindow);
  obs["processRateFloor"] = c.observer.processRateFloor;
  obs["sanitizeSamples"] = c.observer.sanitizeSamples;
  obs["maxSampleHoldQuanta"] = c.observer.maxSampleHoldQuanta;
  obs["maxPlausibleRate"] = c.observer.maxPlausibleRate;
  o["observer"] = util::JsonValue{std::move(obs)};
  util::JsonObject res;
  res["divergenceWatchdog"] = c.resilience.divergenceWatchdog;
  res["divergenceErrorThreshold"] = c.resilience.divergenceErrorThreshold;
  res["divergenceQuanta"] = c.resilience.divergenceQuanta;
  res["fairnessWatchdog"] = c.resilience.fairnessWatchdog;
  res["fairnessStallQuanta"] = c.resilience.fairnessStallQuanta;
  res["fallbackQuanta"] = c.resilience.fallbackQuanta;
  res["failedActuationCooldownQuanta"] =
      c.resilience.failedActuationCooldownQuanta;
  o["resilience"] = util::JsonValue{std::move(res)};
  // The cluster section is written only when clustering actually changes
  // behaviour (>= 2 clusters): a 1-cluster run is byte-identical to flat by
  // contract, and dike_diff compares embedded specs verbatim — the
  // equivalence check depends on these specs matching too.
  if (c.cluster.clusters >= 2) {
    // decideJobs is deliberately NOT encoded: it is an execution knob
    // (plan-phase worker count), not logical configuration — a checkpoint
    // taken under decideJobs=N must byte-match one taken under decideJobs=1
    // (the decide-jobs equivalence test in the scale tier cmp's exactly
    // this), and a restore may freely pick a different jobs count.
    util::JsonObject cl;
    cl["clusters"] = c.cluster.clusters;
    cl["rebalanceQuanta"] = c.cluster.rebalanceQuanta;
    cl["rebalanceThreshold"] = c.cluster.rebalanceThreshold;
    cl["rebalanceStreak"] = c.cluster.rebalanceStreak;
    cl["rebalanceBudget"] = c.cluster.rebalanceBudget;
    o["cluster"] = util::JsonValue{std::move(cl)};
  }
  return util::JsonValue{std::move(o)};
}

core::DikeConfig dikeConfigFromJson(const util::JsonValue& v) {
  core::DikeConfig c;
  c.params.swapSize = v.intOr("swapSize", c.params.swapSize);
  c.params.quantaLengthMs = v.intOr("quantaLengthMs", c.params.quantaLengthMs);
  c.fairnessThreshold = v.numberOr("fairnessThreshold", c.fairnessThreshold);
  const int goal = v.intOr("goal", static_cast<int>(c.goal));
  if (goal < 0 || goal > static_cast<int>(core::AdaptationGoal::Performance))
    throw std::runtime_error{"run spec field 'dike.goal' is out of range: " +
                             std::to_string(goal)};
  c.goal = static_cast<core::AdaptationGoal>(goal);
  c.swapOhMs = v.numberOr("swapOhMs", c.swapOhMs);
  c.cooldownQuanta = v.intOr("cooldownQuanta", c.cooldownQuanta);
  c.minCooldownMs = v.intOr("minCooldownMs", c.minCooldownMs);
  c.requirePositiveProfit =
      v.boolOr("requirePositiveProfit", c.requirePositiveProfit);
  c.rotateWhenNoViolator =
      v.boolOr("rotateWhenNoViolator", c.rotateWhenNoViolator);
  c.pairRateMargin = v.numberOr("pairRateMargin", c.pairRateMargin);
  c.useFreeCores = v.boolOr("useFreeCores", c.useFreeCores);
  if (const auto obs = v.get("observer")) {
    core::ObserverConfig& ob = c.observer;
    ob.llcMissThreshold = obs->numberOr("llcMissThreshold",
                                        ob.llcMissThreshold);
    ob.coreBwDecay = obs->numberOr("coreBwDecay", ob.coreBwDecay);
    ob.symmetricMovingMean =
        obs->boolOr("symmetricMovingMean", ob.symmetricMovingMean);
    ob.movingMeanWindow = static_cast<std::size_t>(obs->intOr(
        "movingMeanWindow", static_cast<int>(ob.movingMeanWindow)));
    ob.socketShare = obs->numberOr("socketShare", ob.socketShare);
    ob.balanceTolerance = obs->numberOr("balanceTolerance",
                                        ob.balanceTolerance);
    ob.threadRateWindow = static_cast<std::size_t>(obs->intOr(
        "threadRateWindow", static_cast<int>(ob.threadRateWindow)));
    ob.processRateFloor = obs->numberOr("processRateFloor",
                                        ob.processRateFloor);
    ob.sanitizeSamples = obs->boolOr("sanitizeSamples", ob.sanitizeSamples);
    ob.maxSampleHoldQuanta =
        obs->intOr("maxSampleHoldQuanta", ob.maxSampleHoldQuanta);
    ob.maxPlausibleRate = obs->numberOr("maxPlausibleRate",
                                        ob.maxPlausibleRate);
  }
  if (const auto res = v.get("resilience")) {
    core::ResilienceConfig& rc = c.resilience;
    rc.divergenceWatchdog =
        res->boolOr("divergenceWatchdog", rc.divergenceWatchdog);
    rc.divergenceErrorThreshold = res->numberOr("divergenceErrorThreshold",
                                                rc.divergenceErrorThreshold);
    rc.divergenceQuanta = res->intOr("divergenceQuanta", rc.divergenceQuanta);
    rc.fairnessWatchdog =
        res->boolOr("fairnessWatchdog", rc.fairnessWatchdog);
    rc.fairnessStallQuanta =
        res->intOr("fairnessStallQuanta", rc.fairnessStallQuanta);
    rc.fallbackQuanta = res->intOr("fallbackQuanta", rc.fallbackQuanta);
    rc.failedActuationCooldownQuanta = res->intOr(
        "failedActuationCooldownQuanta", rc.failedActuationCooldownQuanta);
  }
  if (const auto cl = v.get("cluster")) {
    core::ClusterConfig& cc = c.cluster;
    cc.clusters = cl->intOr("clusters", cc.clusters);
    if (cc.clusters < 0)
      throw std::runtime_error{
          "run spec field 'dike.cluster.clusters' is out of range: " +
          std::to_string(cc.clusters)};
    cc.rebalanceQuanta = cl->intOr("rebalanceQuanta", cc.rebalanceQuanta);
    cc.rebalanceThreshold =
        cl->numberOr("rebalanceThreshold", cc.rebalanceThreshold);
    cc.rebalanceStreak = cl->intOr("rebalanceStreak", cc.rebalanceStreak);
    cc.rebalanceBudget = cl->intOr("rebalanceBudget", cc.rebalanceBudget);
  }
  return c;
}

util::JsonValue workloadSpecToJson(const wl::WorkloadSpec& w) {
  util::JsonObject o;
  o["id"] = w.id;
  o["name"] = w.name;
  o["class"] = static_cast<int>(w.cls);
  util::JsonArray apps;
  for (const std::string& app : w.apps) apps.emplace_back(app);
  o["apps"] = util::JsonValue{std::move(apps)};
  o["includeKmeans"] = w.includeKmeans;
  return util::JsonValue{std::move(o)};
}

wl::WorkloadSpec workloadSpecFromJson(const util::JsonValue& v) {
  wl::WorkloadSpec w;
  w.id = v.intOr("id", 0);
  w.name = v.stringOr("name", "");
  const int cls = v.intOr("class", 0);
  if (cls < 0 || cls > static_cast<int>(wl::WorkloadClass::UnbalancedMemory))
    throw std::runtime_error{
        "run spec field 'customWorkload.class' is out of range: " +
        std::to_string(cls)};
  w.cls = static_cast<wl::WorkloadClass>(cls);
  if (const auto apps = v.get("apps"))
    for (const util::JsonValue& app : apps->asArray())
      w.apps.push_back(app.asString());
  w.includeKmeans = v.boolOr("includeKmeans", true);
  return w;
}

SchedulerKind schedulerKindFromString(const std::string& name) {
  static constexpr SchedulerKind kAll[] = {
      SchedulerKind::Cfs,          SchedulerKind::Dio,
      SchedulerKind::Dike,         SchedulerKind::DikeAF,
      SchedulerKind::DikeAP,       SchedulerKind::Random,
      SchedulerKind::StaticOracle, SchedulerKind::Suspension};
  for (const SchedulerKind kind : kAll)
    if (name == toString(kind)) return kind;
  throw std::runtime_error{"run spec names an unknown scheduler: '" + name +
                           "'"};
}

util::JsonValue ticksToJson(util::Tick t) {
  return util::JsonValue{static_cast<double>(t)};
}

}  // namespace

util::JsonValue runSpecToJson(const RunSpec& spec) {
  util::JsonObject o;
  o["workloadId"] = spec.workloadId;
  if (spec.customWorkload)
    o["customWorkload"] = workloadSpecToJson(*spec.customWorkload);
  o["scheduler"] = std::string{toString(spec.kind)};
  o["swapSize"] = spec.params.swapSize;
  o["quantaLengthMs"] = spec.params.quantaLengthMs;
  if (spec.dikeConfig) o["dike"] = dikeConfigToJson(*spec.dikeConfig);
  o["scale"] = spec.scale;
  o["seed"] = u64ToString(spec.seed);
  o["heterogeneous"] = spec.heterogeneous;
  if (!spec.topology.empty()) {
    util::JsonArray sockets;
    for (const sim::SocketSpec& s : spec.topology) {
      util::JsonObject so;
      so["physicalCores"] = s.physicalCores;
      so["smtWays"] = s.smtWays;
      so["freqGhz"] = s.freqGhz;
      so["type"] = std::string{sim::toString(s.type)};
      sockets.emplace_back(std::move(so));
    }
    o["topology"] = util::JsonValue{std::move(sockets)};
  }
  o["machine"] = machineConfigToJson(spec.machine);
  o["threadsPerApp"] = spec.threadsPerApp;
  if (spec.faults) o["faults"] = fault::toJson(*spec.faults);
  return util::JsonValue{std::move(o)};
}

RunSpec runSpecFromJson(const util::JsonValue& doc) {
  if (!doc.isObject())
    throw std::runtime_error{"run spec document must be a JSON object"};
  RunSpec spec;
  spec.workloadId = doc.intOr("workloadId", spec.workloadId);
  if (const auto custom = doc.get("customWorkload"))
    spec.customWorkload = workloadSpecFromJson(*custom);
  spec.kind = schedulerKindFromString(
      doc.stringOr("scheduler", toString(spec.kind)));
  spec.params.swapSize = doc.intOr("swapSize", spec.params.swapSize);
  spec.params.quantaLengthMs =
      doc.intOr("quantaLengthMs", spec.params.quantaLengthMs);
  if (const auto dike = doc.get("dike"))
    spec.dikeConfig = dikeConfigFromJson(*dike);
  spec.scale = doc.numberOr("scale", spec.scale);
  if (const auto seed = doc.get("seed"))
    spec.seed = u64FromString(seed->asString(), "seed");
  spec.heterogeneous = doc.boolOr("heterogeneous", spec.heterogeneous);
  if (const auto topology = doc.get("topology")) {
    if (!topology->isArray())
      throw std::runtime_error{
          "run spec field 'topology' must be an array of socket specs"};
    for (const util::JsonValue& v : topology->asArray()) {
      sim::SocketSpec s;
      s.physicalCores = v.intOr("physicalCores", s.physicalCores);
      s.smtWays = v.intOr("smtWays", s.smtWays);
      if (s.physicalCores < 1 || s.smtWays < 1)
        throw std::runtime_error{
            "run spec field 'topology' has a non-positive core count"};
      s.freqGhz = v.numberOr("freqGhz", s.freqGhz);
      const std::string type = v.stringOr("type", "fast");
      if (type != "fast" && type != "slow")
        throw std::runtime_error{
            "run spec field 'topology[].type' must be 'fast' or 'slow'"};
      s.type = type == "fast" ? sim::CoreType::Fast : sim::CoreType::Slow;
      spec.topology.push_back(s);
    }
  }
  if (const auto machine = doc.get("machine"))
    spec.machine = machineConfigFromJson(*machine);
  spec.threadsPerApp = doc.intOr("threadsPerApp", spec.threadsPerApp);
  if (const auto faults = doc.get("faults"))
    spec.faults = fault::parseFaultPlan(*faults);
  return spec;
}

util::JsonValue runMetricsToJson(const RunMetrics& m) {
  util::JsonObject o;
  o["scheduler"] = m.scheduler;
  o["workload"] = m.workload;
  o["makespan"] = ticksToJson(m.makespan);
  o["timedOut"] = m.timedOut;
  o["fairness"] = m.fairness;
  o["swaps"] = static_cast<double>(m.swaps);
  o["migrations"] = static_cast<double>(m.migrations);
  o["energyJoules"] = m.energyJoules;
  o["traceDropped"] = static_cast<double>(m.traceDropped);
  util::JsonArray processes;
  for (const ProcessResult& p : m.processes) {
    util::JsonObject po;
    po["processId"] = p.processId;
    po["name"] = p.name;
    po["memoryIntensive"] = p.memoryIntensive;
    po["finishTick"] = ticksToJson(p.finishTick);
    po["runtimeCv"] = p.runtimeCv;
    util::JsonArray finishes;
    for (const util::Tick t : p.threadFinishTicks)
      finishes.push_back(ticksToJson(t));
    po["threadFinishTicks"] = util::JsonValue{std::move(finishes)};
    processes.emplace_back(std::move(po));
  }
  o["processes"] = util::JsonValue{std::move(processes)};
  util::JsonObject d;
  d["quanta"] = static_cast<double>(m.decisions.quanta);
  d["actedQuanta"] = static_cast<double>(m.decisions.actedQuanta);
  d["pairsConsidered"] = static_cast<double>(m.decisions.pairsConsidered);
  d["rejectedCooldown"] = static_cast<double>(m.decisions.rejectedCooldown);
  d["rejectedProfit"] = static_cast<double>(m.decisions.rejectedProfit);
  d["swapsExecuted"] = static_cast<double>(m.decisions.swapsExecuted);
  d["swapsFailed"] = static_cast<double>(m.decisions.swapsFailed);
  d["migrationsFailed"] = static_cast<double>(m.decisions.migrationsFailed);
  d["fallbackQuanta"] = static_cast<double>(m.decisions.fallbackQuanta);
  d["fallbackEngagements"] =
      static_cast<double>(m.decisions.fallbackEngagements);
  d["divergenceResets"] = static_cast<double>(m.decisions.divergenceResets);
  o["decisions"] = util::JsonValue{std::move(d)};
  util::JsonObject f;
  f["droppedSamples"] = static_cast<double>(m.faults.droppedSamples);
  f["corruptedSamples"] = static_cast<double>(m.faults.corruptedSamples);
  f["stuckSamples"] = static_cast<double>(m.faults.stuckSamples);
  f["stuckEpisodes"] = static_cast<double>(m.faults.stuckEpisodes);
  f["saturatedMissRatios"] =
      static_cast<double>(m.faults.saturatedMissRatios);
  f["failedSwaps"] = static_cast<double>(m.faults.failedSwaps);
  f["failedMigrations"] = static_cast<double>(m.faults.failedMigrations);
  o["faults"] = util::JsonValue{std::move(f)};
  o["coreFreqDips"] = static_cast<double>(m.coreFreqDips);
  o["hasPredictions"] = m.hasPredictions;
  if (m.hasPredictions) {
    o["predErrMean"] = m.predErrMean;
    o["predErrMin"] = m.predErrMin;
    o["predErrMax"] = m.predErrMax;
    util::JsonArray trace;
    for (const core::PredictionErrorPoint& p : m.predTrace) {
      util::JsonObject po;
      po["tick"] = ticksToJson(p.tick);
      po["samples"] = p.samples;
      po["mean"] = p.mean;
      po["min"] = p.min;
      po["max"] = p.max;
      trace.emplace_back(std::move(po));
    }
    o["predTrace"] = util::JsonValue{std::move(trace)};
  }
  return util::JsonValue{std::move(o)};
}

RunMetrics runMetricsFromJson(const util::JsonValue& doc) {
  if (!doc.isObject())
    throw std::runtime_error{"run metrics document must be a JSON object"};
  RunMetrics m;
  m.scheduler = doc.stringOr("scheduler", "");
  m.workload = doc.stringOr("workload", "");
  m.makespan = static_cast<util::Tick>(doc.numberOr("makespan", 0.0));
  m.timedOut = doc.boolOr("timedOut", false);
  m.fairness = doc.numberOr("fairness", 0.0);
  m.swaps = static_cast<std::int64_t>(doc.numberOr("swaps", 0.0));
  m.migrations = static_cast<std::int64_t>(doc.numberOr("migrations", 0.0));
  m.energyJoules = doc.numberOr("energyJoules", 0.0);
  m.traceDropped = static_cast<std::size_t>(doc.numberOr("traceDropped", 0.0));
  if (const auto processes = doc.get("processes")) {
    for (const util::JsonValue& pv : processes->asArray()) {
      ProcessResult p;
      p.processId = pv.intOr("processId", 0);
      p.name = pv.stringOr("name", "");
      p.memoryIntensive = pv.boolOr("memoryIntensive", false);
      p.finishTick = static_cast<util::Tick>(pv.numberOr("finishTick", 0.0));
      p.runtimeCv = pv.numberOr("runtimeCv", 0.0);
      if (const auto finishes = pv.get("threadFinishTicks"))
        for (const util::JsonValue& t : finishes->asArray())
          p.threadFinishTicks.push_back(
              static_cast<util::Tick>(t.asNumber()));
      m.processes.push_back(std::move(p));
    }
  }
  if (const auto d = doc.get("decisions")) {
    const auto i64 = [&d](const char* key) {
      return static_cast<std::int64_t>(d->numberOr(key, 0.0));
    };
    m.decisions.quanta = i64("quanta");
    m.decisions.actedQuanta = i64("actedQuanta");
    m.decisions.pairsConsidered = i64("pairsConsidered");
    m.decisions.rejectedCooldown = i64("rejectedCooldown");
    m.decisions.rejectedProfit = i64("rejectedProfit");
    m.decisions.swapsExecuted = i64("swapsExecuted");
    m.decisions.swapsFailed = i64("swapsFailed");
    m.decisions.migrationsFailed = i64("migrationsFailed");
    m.decisions.fallbackQuanta = i64("fallbackQuanta");
    m.decisions.fallbackEngagements = i64("fallbackEngagements");
    m.decisions.divergenceResets = i64("divergenceResets");
  }
  if (const auto f = doc.get("faults")) {
    const auto i64 = [&f](const char* key) {
      return static_cast<std::int64_t>(f->numberOr(key, 0.0));
    };
    m.faults.droppedSamples = i64("droppedSamples");
    m.faults.corruptedSamples = i64("corruptedSamples");
    m.faults.stuckSamples = i64("stuckSamples");
    m.faults.stuckEpisodes = i64("stuckEpisodes");
    m.faults.saturatedMissRatios = i64("saturatedMissRatios");
    m.faults.failedSwaps = i64("failedSwaps");
    m.faults.failedMigrations = i64("failedMigrations");
  }
  m.coreFreqDips =
      static_cast<std::int64_t>(doc.numberOr("coreFreqDips", 0.0));
  m.hasPredictions = doc.boolOr("hasPredictions", false);
  if (m.hasPredictions) {
    m.predErrMean = doc.numberOr("predErrMean", 0.0);
    m.predErrMin = doc.numberOr("predErrMin", 0.0);
    m.predErrMax = doc.numberOr("predErrMax", 0.0);
    if (const auto trace = doc.get("predTrace")) {
      for (const util::JsonValue& pv : trace->asArray()) {
        core::PredictionErrorPoint p;
        p.tick = static_cast<util::Tick>(pv.numberOr("tick", 0.0));
        p.samples = pv.intOr("samples", 0);
        p.mean = pv.numberOr("mean", 0.0);
        p.min = pv.numberOr("min", 0.0);
        p.max = pv.numberOr("max", 0.0);
        m.predTrace.push_back(p);
      }
    }
  }
  return m;
}

RunSession::RunSession(RunSpec spec)
    : spec_(std::move(spec)),
      workload_(spec_.customWorkload ? *spec_.customWorkload
                                     : wl::workload(spec_.workloadId)) {
  // Construction mirrors runWorkload exactly (minus telemetry, which is
  // read-only and never attached to checkpointed runs) so a rebuilt stack
  // is bit-identical to the one the checkpoint was taken from.
  sim::MachineConfig machineCfg = spec_.machine;
  machineCfg.seed = spec_.seed;
  machine_.emplace(topologyForSpec(spec_), machineCfg);
  wl::addWorkloadProcesses(*machine_, workload_, spec_.scale,
                           spec_.threadsPerApp);
  if (spec_.kind == SchedulerKind::StaticOracle)
    sched::placeOracle(*machine_);
  else
    sched::placeRandom(*machine_, spec_.seed);

  scheduler_ = makeScheduler(spec_);
  adapter_.emplace(*scheduler_);
  policy_ = &*adapter_;
  if (spec_.faults && spec_.faults->enabled()) {
    injector_.emplace(*spec_.faults);
    adapter_->setSampleFilter(&*injector_);
    adapter_->setActuationHook(&*injector_);
    faultPolicy_.emplace(*adapter_, *injector_);
    if (auto* dike = dynamic_cast<core::DikeScheduler*>(scheduler_.get()))
      faultPolicy_->setFaultsActiveListener(
          [dike](bool active) { dike->setFaultsActiveHint(active); });
    policy_ = &*faultPolicy_;
  }
}

RunSession::~RunSession() = default;

void RunSession::attachQuantumStream(telemetry::QuantumStreamWriter& writer) {
  streamListener_ = std::make_unique<QuantumMetricsListener>(writer);
  adapter_->setListener(streamListener_.get());
}

void RunSession::setDecideJobs(int jobs) {
  if (auto* clustered =
          dynamic_cast<core::ClusteredDikeScheduler*>(scheduler_.get()))
    clustered->setDecideJobs(jobs);
}

bool RunSession::done() const {
  return machine_->allFinished() || machine_->now() >= limits_.maxTicks;
}

bool RunSession::stepQuantum() {
  // This loop is runMachine's body verbatim, stopped after one quantum: a
  // stepped-then-finished run must execute exactly the arithmetic an
  // uninterrupted run would.
  if (nextQuantumAt_ < 0) nextQuantumAt_ = policy_->quantumTicks();
  while (!machine_->allFinished() && machine_->now() < limits_.maxTicks) {
    const util::Tick target = std::min(
        limits_.maxTicks, std::max(nextQuantumAt_, machine_->now() + 1));
    machine_->stepUntil(target);
    if (machine_->now() >= nextQuantumAt_) {
      if (machine_->allFinished()) return false;
      policy_->onQuantum(*machine_);
      nextQuantumAt_ = std::max(
          nextQuantumAt_ + std::max<util::Tick>(1, policy_->quantumTicks()),
          machine_->now() + 1);
      ++quantumIndex_;
      return true;
    }
  }
  return false;
}

RunMetrics RunSession::finish(const CheckpointOptions& opts) {
  const sim::QuantumHook hook =
      [this, &opts](sim::Machine&, std::int64_t quantumIndex,
                    util::Tick nextQuantumAt) {
        quantumIndex_ = quantumIndex + 1;
        nextQuantumAt_ = nextQuantumAt;
        if (opts.enabled() && quantumIndex_ % opts.everyQuanta == 0)
          writeCheckpoint(opts.path);
      };
  const sim::RunOutcome outcome = sim::runMachine(
      *machine_, *policy_, limits_,
      sim::RunCursor{quantumIndex_, nextQuantumAt_}, hook);
  RunMetrics metrics = collectRunMetrics(*machine_, outcome, *scheduler_);
  metrics.workload = workload_.name;
  if (injector_) {
    metrics.faults = injector_->tally();
    metrics.coreFreqDips = faultPolicy_->freqDips();
  }
  return metrics;
}

std::string RunSession::checkpointPayload() const {
  ckpt::BinWriter w;
  savePayload(w);
  return w.take();
}

void RunSession::savePayload(ckpt::BinWriter& w) const {
  w.beginSection("run");
  w.str("config", runSpecToJson(spec_).dump());
  w.str("schedulerName", scheduler_->name());
  w.i64("quantumIndex", quantumIndex_);
  w.i64("nextQuantumAt", nextQuantumAt_);
  w.i64("maxTicks", limits_.maxTicks);
  machine_->saveState(w);
  scheduler_->saveState(w);
  w.boolean("hasFaultLayer", injector_.has_value());
  if (injector_) {
    injector_->saveState(w);
    faultPolicy_->saveState(w);
  }
  // The stream cursor rides in the payload when a stream is attached:
  // resumed NDJSON records are only byte-identical if the listener's
  // path-dependent accumulators restart exactly (format version 2).
  w.boolean("hasQuantumStream", streamListener_ != nullptr);
  if (streamListener_) streamListener_->saveState(w);
  w.endSection();
}

void RunSession::writeCheckpoint(const std::string& path) {
  ckpt::BinWriter w{std::move(payloadBuffer_)};
  savePayload(w);
  payloadBuffer_ = w.take();
  ckpt::writeCheckpointFile(path, payloadBuffer_);
}

std::unique_ptr<RunSession> RunSession::restore(
    const std::string& path, telemetry::QuantumStreamWriter* stream) {
  const std::string payload = ckpt::readCheckpointFile(path);
  ckpt::BinReader r{payload};
  r.beginSection("run");
  const std::string configJson = r.str("config");
  RunSpec spec;
  try {
    spec = runSpecFromJson(util::parseJson(configJson));
  } catch (const std::exception& e) {
    throw ckpt::CheckpointError{
        std::string{"checkpoint carries an unreadable run spec: "} +
        e.what()};
  }
  // Rebuild-then-overwrite: the stack is reconstructed from the embedded
  // spec exactly as a fresh run would build it, then the mutable state is
  // loaded over it. A throw anywhere below destroys the half-built session
  // — the caller never observes a partial restore.
  auto session = std::make_unique<RunSession>(std::move(spec));
  const std::string schedulerName = r.str("schedulerName");
  if (schedulerName != session->scheduler_->name())
    throw ckpt::CheckpointError{
        "checkpoint names scheduler '" + schedulerName +
        "' but the embedded run spec builds '" +
        std::string{session->scheduler_->name()} + "'"};
  session->quantumIndex_ = r.i64("quantumIndex");
  session->nextQuantumAt_ = r.i64("nextQuantumAt");
  session->limits_.maxTicks = r.i64("maxTicks");
  session->machine_->loadState(r);
  session->scheduler_->loadState(r);
  const bool hasFaultLayer = r.boolean("hasFaultLayer");
  if (hasFaultLayer != session->injector_.has_value())
    throw ckpt::CheckpointError{
        "checkpoint fault-layer flag contradicts the embedded run spec"};
  if (session->injector_) {
    session->injector_->loadState(r);
    session->faultPolicy_->loadState(r);
  }
  const bool hasStream = r.boolean("hasQuantumStream");
  if (hasStream) {
    if (stream != nullptr) {
      session->attachQuantumStream(*stream);
      session->streamListener_->loadState(r);
    } else {
      // Consume (and drop) the cursor so stream-less consumers can still
      // restore supervised checkpoints; their payloads simply lose the
      // cursor, symmetrically on both sides of a dike_diff comparison.
      std::ostringstream devnull;
      telemetry::QuantumStreamWriter sink{devnull,
                                          telemetry::StreamFormat::JsonLines};
      QuantumMetricsListener discard{sink};
      discard.loadState(r);
    }
  } else if (stream != nullptr) {
    session->attachQuantumStream(*stream);
  }
  r.endSection();
  r.expectEnd();
  return session;
}

RunMetrics runWorkloadCheckpointed(const RunSpec& spec,
                                   const CheckpointOptions& opts) {
  RunSession session{spec};
  return session.finish(opts);
}

RunMetrics resumeWorkload(const std::string& checkpointPath,
                          const CheckpointOptions& opts, int decideJobs) {
  const std::unique_ptr<RunSession> session =
      RunSession::restore(checkpointPath);
  if (decideJobs >= 0) session->setDecideJobs(decideJobs);
  return session->finish(opts);
}

std::optional<std::string> firstDivergence(std::string_view payloadA,
                                           std::string_view payloadB) {
  const std::vector<ckpt::Token> a = ckpt::tokenize(payloadA);
  const std::vector<ckpt::Token> b = ckpt::tokenize(payloadB);
  const std::size_t shared = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < shared; ++i) {
    if (a[i] == b[i]) continue;
    if (a[i].path != b[i].path)
      return "structure diverges at record " + std::to_string(i) + ": '" +
             a[i].path + "' vs '" + b[i].path + "'";
    return a[i].path + ": " + a[i].value + " vs " + b[i].value;
  }
  if (a.size() != b.size())
    return "payloads agree for " + std::to_string(shared) +
           " records, then " + (a.size() < b.size() ? "A" : "B") +
           " ends early (" + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + " records)";
  return std::nullopt;
}

}  // namespace dike::exp
