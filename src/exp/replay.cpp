#include "exp/replay.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/fields.hpp"
#include "ckpt/json_fields.hpp"
#include "core/clustered_scheduler.hpp"
#include "core/dike_scheduler.hpp"
#include "exp/config_io.hpp"
#include "exp/stream_listener.hpp"
#include "fault/fault_policy.hpp"
#include "sched/placement.hpp"
#include "telemetry/quantum_stream.hpp"

// JSON field lists of the run spec (embedded in every checkpoint) and the
// report (the resumable sweep's state). They sit in dike::ckpt, beside the
// archives that run them, where JsonArchive's fields() call finds them.
namespace dike::ckpt {

template <class Ar>
void fields(Ar& ar, sim::MachineConfig& m) {
  ar.io("controllerAccessesPerSec", m.memory.controllerAccessesPerSec);
  ar.io("socketLinkAccessesPerSec", m.memory.socketLinkAccessesPerSec);
  ar.io("smtSharedFactor", m.smtSharedFactor);
  ar.io("migrationStallTicks", m.migrationStallTicks);
  ar.io("cacheColdTicks", m.cacheColdTicks);
  ar.io("cacheColdFactor", m.cacheColdFactor);
  ar.io("cacheColdSlowdown", m.cacheColdSlowdown);
  ar.io("llcPerSocketMB", m.llcPerSocketMB);
  ar.io("llcPressureFactor", m.llcPressureFactor);
  ar.io("conflictSpread", m.conflictSpread);
  ar.io("measurementNoiseSigma", m.measurementNoiseSigma);
  ar.io("idlePowerW", m.idlePowerW);
  ar.io("dynamicPowerW", m.dynamicPowerW);
  ar.io("refFreqGhz", m.refFreqGhz);
  ar.io("tickLeaping", m.tickLeaping);
  ar.io("utilizationSnapEpsilon", m.utilizationSnapEpsilon);
  ar.decimal("seed", m.seed);
}

template <class Ar>
void fields(Ar& ar, core::ObserverConfig& o) {
  ar.io("llcMissThreshold", o.llcMissThreshold);
  ar.io("coreBwDecay", o.coreBwDecay);
  ar.io("symmetricMovingMean", o.symmetricMovingMean);
  ar.io("movingMeanWindow", o.movingMeanWindow);
  ar.io("socketShare", o.socketShare);
  ar.io("balanceTolerance", o.balanceTolerance);
  ar.io("threadRateWindow", o.threadRateWindow);
  ar.io("processRateFloor", o.processRateFloor);
  ar.io("sanitizeSamples", o.sanitizeSamples);
  ar.io("maxSampleHoldQuanta", o.maxSampleHoldQuanta);
  ar.io("maxPlausibleRate", o.maxPlausibleRate);
}

template <class Ar>
void fields(Ar& ar, core::ResilienceConfig& r) {
  ar.io("divergenceWatchdog", r.divergenceWatchdog);
  ar.io("divergenceErrorThreshold", r.divergenceErrorThreshold);
  ar.io("divergenceQuanta", r.divergenceQuanta);
  ar.io("fairnessWatchdog", r.fairnessWatchdog);
  ar.io("fairnessStallQuanta", r.fairnessStallQuanta);
  ar.io("fallbackQuanta", r.fallbackQuanta);
  ar.io("failedActuationCooldownQuanta", r.failedActuationCooldownQuanta);
}

/// decideJobs is deliberately not listed: it is an execution knob
/// (plan-phase worker count), not logical configuration — a checkpoint
/// taken under decideJobs=N must byte-match one taken under decideJobs=1
/// (the decide-jobs equivalence test in the scale tier cmp's exactly this),
/// and a restore may freely pick a different jobs count.
template <class Ar>
void fields(Ar& ar, core::ClusterConfig& c) {
  ar.io("clusters", c.clusters);
  ar.io("rebalanceQuanta", c.rebalanceQuanta);
  ar.io("rebalanceThreshold", c.rebalanceThreshold);
  ar.io("rebalanceStreak", c.rebalanceStreak);
  ar.io("rebalanceBudget", c.rebalanceBudget);
  if (Ar::kLoading && c.clusters < 0)
    throw std::runtime_error{
        "run spec field 'dike.cluster.clusters' is out of range: " +
        std::to_string(c.clusters)};
}

template <class Ar>
void fields(Ar& ar, core::DikeConfig& c) {
  ar.io("swapSize", c.params.swapSize);
  ar.io("quantaLengthMs", c.params.quantaLengthMs);
  ar.io("fairnessThreshold", c.fairnessThreshold);
  ar.io("goal", c.goal);
  ar.io("swapOhMs", c.swapOhMs);
  ar.io("cooldownQuanta", c.cooldownQuanta);
  ar.io("minCooldownMs", c.minCooldownMs);
  ar.io("requirePositiveProfit", c.requirePositiveProfit);
  ar.io("rotateWhenNoViolator", c.rotateWhenNoViolator);
  ar.io("pairRateMargin", c.pairRateMargin);
  ar.io("useFreeCores", c.useFreeCores);
  ar.io("observer", c.observer);
  ar.io("resilience", c.resilience);
  // The cluster section is written only when clustering actually changes
  // behaviour (>= 2 clusters): a 1-cluster run is byte-identical to flat by
  // contract, and dike_diff compares embedded specs verbatim — the
  // equivalence check depends on these specs matching too.
  if (Ar::kLoading || c.cluster.clusters >= 2) ar.io("cluster", c.cluster);
  const auto goal = static_cast<int>(c.goal);
  if (Ar::kLoading &&
      (goal < 0 || goal > static_cast<int>(core::AdaptationGoal::Performance)))
    throw std::runtime_error{"run spec field 'dike.goal' is out of range: " +
                             std::to_string(goal)};
}

template <class Ar>
void fields(Ar& ar, wl::WorkloadSpec& w) {
  ar.io("id", w.id);
  ar.io("name", w.name);
  ar.io("class", w.cls);
  ar.io("apps", w.apps);
  ar.io("includeKmeans", w.includeKmeans);
  const auto cls = static_cast<int>(w.cls);
  if (Ar::kLoading &&
      (cls < 0 || cls > static_cast<int>(wl::WorkloadClass::UnbalancedMemory)))
    throw std::runtime_error{
        "run spec field 'customWorkload.class' is out of range: " +
        std::to_string(cls)};
}

template <class Ar>
void fields(Ar& ar, sim::SocketSpec& s) {
  ar.io("physicalCores", s.physicalCores);
  ar.io("smtWays", s.smtWays);
  ar.io("freqGhz", s.freqGhz);
  std::string type{sim::toString(s.type)};
  ar.io("type", type);
  if constexpr (Ar::kLoading) {
    if (s.physicalCores < 1 || s.smtWays < 1)
      throw std::runtime_error{
          "run spec field 'topology' has a non-positive core count"};
    if (type != "fast" && type != "slow")
      throw std::runtime_error{
          "run spec field 'topology[].type' must be 'fast' or 'slow'"};
    s.type = type == "fast" ? sim::CoreType::Fast : sim::CoreType::Slow;
  }
}

template <class Ar>
void fields(Ar& ar, exp::RunSpec& spec) {
  ar.io("workloadId", spec.workloadId);
  ar.io("customWorkload", spec.customWorkload);
  std::string scheduler{toString(spec.kind)};
  ar.io("scheduler", scheduler);
  if constexpr (Ar::kLoading)
    spec.kind = exp::schedulerKindFromName(scheduler);
  ar.io("swapSize", spec.params.swapSize);
  ar.io("quantaLengthMs", spec.params.quantaLengthMs);
  ar.io("dike", spec.dikeConfig);
  ar.io("scale", spec.scale);
  ar.decimal("seed", spec.seed);
  ar.io("heterogeneous", spec.heterogeneous);
  if (Ar::kLoading || !spec.topology.empty()) ar.io("topology", spec.topology);
  ar.io("machine", spec.machine);
  ar.io("threadsPerApp", spec.threadsPerApp);
  ar.io("faults", spec.faults);
}

template <class Ar>
void fields(Ar& ar, exp::ProcessResult& p) {
  ar.io("processId", p.processId);
  ar.io("name", p.name);
  ar.io("memoryIntensive", p.memoryIntensive);
  ar.io("finishTick", p.finishTick);
  ar.io("runtimeCv", p.runtimeCv);
  ar.io("threadFinishTicks", p.threadFinishTicks);
}

template <class Ar>
void fields(Ar& ar, exp::RunMetrics& m) {
  ar.io("scheduler", m.scheduler);
  ar.io("workload", m.workload);
  ar.io("makespan", m.makespan);
  ar.io("timedOut", m.timedOut);
  ar.io("fairness", m.fairness);
  ar.io("swaps", m.swaps);
  ar.io("migrations", m.migrations);
  ar.io("energyJoules", m.energyJoules);
  ar.io("traceDropped", m.traceDropped);
  ar.io("processes", m.processes);
  ar.io("decisions", m.decisions);
  ar.io("faults", m.faults);
  ar.io("coreFreqDips", m.coreFreqDips);
  ar.io("hasPredictions", m.hasPredictions);
  if (m.hasPredictions) {
    ar.io("predErrMean", m.predErrMean);
    ar.io("predErrMin", m.predErrMin);
    ar.io("predErrMax", m.predErrMax);
    ar.io("predTrace", m.predTrace);
  }
}

}  // namespace dike::ckpt

namespace dike::exp {

util::JsonValue runSpecToJson(const RunSpec& spec) {
  return ckpt::toJson(spec);
}

RunSpec runSpecFromJson(const util::JsonValue& doc) {
  if (!doc.isObject())
    throw std::runtime_error{"run spec document must be a JSON object"};
  return ckpt::fromJson<RunSpec>(doc);
}

util::JsonValue runMetricsToJson(const RunMetrics& metrics) {
  return ckpt::toJson(metrics);
}

RunMetrics runMetricsFromJson(const util::JsonValue& doc) {
  if (!doc.isObject())
    throw std::runtime_error{"run metrics document must be a JSON object"};
  return ckpt::fromJson<RunMetrics>(doc);
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

template <class Ar>
void RunSession::fields(Ar& ar) {
  ar.expect("schedulerName", scheduler_->name());
  ar.io("quantumIndex", quantumIndex_);
  ar.io("nextQuantumAt", nextQuantumAt_);
  ar.io("maxTicks", limits_.maxTicks);
  ar.nested(*machine_);
  ar.nested(*scheduler_);
  ar.expect("hasFaultLayer", injector_.has_value());
  if (injector_) {
    ar.nested(*injector_);
    ar.nested(*faultPolicy_);
  }
  // The stream cursor rides in the payload when a stream is attached:
  // resumed NDJSON records are only byte-identical if the listener's
  // path-dependent accumulators restart exactly (format version 2).
  bool hasStream = streamListener_ != nullptr;
  ar.io("hasQuantumStream", hasStream);
  if (hasStream && streamListener_ != nullptr) {
    ar.nested(*streamListener_);
  } else if (hasStream) {
    // Only a restore without a stream gets here. Consume (and drop) the
    // cursor so stream-less consumers can still restore supervised
    // checkpoints; their payloads simply lose the cursor, symmetrically on
    // both sides of a dike_diff comparison.
    std::ostringstream devnull;
    telemetry::QuantumStreamWriter sink{devnull,
                                        telemetry::StreamFormat::JsonLines};
    QuantumMetricsListener discard{sink};
    ar.nested(discard);
  }
}

// The payload is a "run" section: the spec the session is rebuilt from,
// which restore() must read before a session exists, then fields().
void RunSession::savePayload(ckpt::BinWriter& w) const {
  ckpt::Writer ar{w};
  ar.section("run", [&] {
    ar.io("config", runSpecToJson(spec_).dump());
    const_cast<RunSession&>(*this).fields(ar);  // a Writer only reads
  });
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
  ckpt::Reader ar{r};
  std::unique_ptr<RunSession> session;
  ar.section("run", [&] {
    std::string config;
    ar.io("config", config);
    RunSpec spec;
    try {
      spec = runSpecFromJson(util::parseJson(config));
    } catch (const std::exception& e) {
      throw ckpt::CheckpointError{
          std::string{"checkpoint carries an unreadable run spec: "} +
          e.what()};
    }
    // Rebuild-then-overwrite: the stack is reconstructed from the embedded
    // spec exactly as a fresh run would build it, then the mutable state is
    // loaded over it. A throw anywhere below destroys the half-built
    // session — the caller never observes a partial restore.
    session = std::make_unique<RunSession>(std::move(spec));
    if (stream != nullptr) session->attachQuantumStream(*stream);
    session->fields(ar);
  });
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
