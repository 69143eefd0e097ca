#include "exp/replay.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
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
#include "exp/analysis.hpp"
#include "exp/chrome_trace.hpp"
#include "exp/quantum_recorder.hpp"
#include "fault/fault_policy.hpp"
#include "sched/placement.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/decision_trace.hpp"
#include "telemetry/health.hpp"
#include "telemetry/live.hpp"
#include "telemetry/quantum_stream.hpp"
#include "util/atomic_file.hpp"
#include "util/log.hpp"

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

namespace {

/// The live plane's reader of the quantum record: thread slowdowns and the
/// fairness spread into the ring transport, the aggregator's placement
/// snapshot for /state, and the /healthz heartbeat. It only formats what
/// the recorder built, so live aggregates and the quantum stream agree
/// sample for sample.
class LiveQuantumPublisher final : public QuantumRecordConsumer {
 public:
  explicit LiveQuantumPublisher(const QuantumRecorder& recorder)
      : recorder_(&recorder) {}

  void onRecord(const telemetry::QuantumRecord& rec,
                const sched::SchedulerView& view) override {
    const double spread = rec.fairnessSpread;
    // Ring events flow every quantum (the live histograms must match the
    // NDJSON stream sample-for-sample), but the /state placement snapshot
    // only feeds a few-Hz dike_top poll — rebuilding and mutex-publishing
    // it per quantum is pure simulation-thread overhead. Refresh every
    // eighth quantum; sub-millisecond staleness at observed quantum rates.
    const bool refresh = (rec.quantumIndex & 0x7) == 0;
    telemetry::LiveState state;
    if (refresh) {
      state.tick = rec.tick;
      state.quantum = rec.quantumIndex;
      state.unfairness = rec.unfairness;
      state.fairnessSpread = std::isnan(spread) ? 0.0 : spread;
      state.scheduler = rec.scheduler;
      state.cores.reserve(static_cast<std::size_t>(view.coreCount()));
      for (int core = 0; core < view.coreCount(); ++core) {
        telemetry::LiveCoreState c;
        c.core = core;
        c.thread = view.coreOccupant(core);
        c.highBw = recorder_->highBandwidthCore(core) == 1;
        state.cores.push_back(c);
      }
    }
    for (const telemetry::QuantumThreadRecord& t : rec.threads) {
      telemetry::publish(telemetry::EventKind::ThreadSlowdown,
                         static_cast<std::uint32_t>(t.threadId), rec.tick,
                         t.slowdown);
      if (refresh) {
        auto& c = state.cores[static_cast<std::size_t>(t.coreId)];
        c.process = t.processId;
        c.slowdown = std::isnan(t.slowdown) ? 0.0 : t.slowdown;
      }
    }
    telemetry::publish(telemetry::EventKind::FairnessSpread,
                       static_cast<std::uint32_t>(rec.quantumIndex), rec.tick,
                       spread, rec.unfairness);
    if (refresh)
      telemetry::Aggregator::instance().updateLiveState(std::move(state));
    // Liveness stamp for /healthz (two relaxed stores — negligible against
    // the live-plane overhead gate): this quantum just completed, now.
    telemetry::heartbeat(rec.quantumIndex);
  }

 private:
  const QuantumRecorder* recorder_;
};

}  // namespace

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

RunSession::RunSession(RunSpec spec, RunAttachments attachments)
    : spec_(std::move(spec)),
      workload_(spec_.customWorkload ? *spec_.customWorkload
                                     : wl::workload(spec_.workloadId)) {
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
  dike_ = dynamic_cast<core::DikeScheduler*>(scheduler_.get());
  adapter_.emplace(*scheduler_);
  quantumRecorder_ = std::make_unique<QuantumRecorder>(dike_);
  attachTelemetry();
  if (attachments.consumer != nullptr)
    quantumRecorder_->addConsumer(*attachments.consumer);
  if (quantumRecorder_->hasReaders())
    adapter_->setListener(quantumRecorder_.get());

  // The policy chain, innermost first: adapter, frequency script, arrivals,
  // then the fault layer in front of everything. An absent or empty fault
  // plan attaches nothing, leaving the run byte-identical to one without.
  policy_ = &*adapter_;
  if (!attachments.frequencyScript.empty()) {
    dvfs_.emplace(*policy_, std::move(attachments.frequencyScript));
    policy_ = &*dvfs_;
  }
  if (!attachments.arrivals.empty()) {
    arrivals_.emplace(*policy_, std::move(attachments.arrivals));
    policy_ = &*arrivals_;
  }
  if (spec_.faults && spec_.faults->enabled()) {
    const fault::FaultPlan& plan = *spec_.faults;
    injector_.emplace(plan);
    adapter_->setSampleFilter(&*injector_);
    adapter_->setActuationHook(&*injector_);
    // Churn forks the injector's stream only when the plan has churn: the
    // fork advances checkpointed state, and churn-free runs keep theirs.
    if (hasChurn()) {
      if (arrivals_)
        throw std::invalid_argument{
            "a run cannot combine explicit arrivals with fault-plan churn"};
      arrivals_.emplace(*policy_,
                        churnArrivals(plan, injector_->forkStream(),
                                      scheduler_->quantumTicks()),
                        /*holdsRunOpen=*/false);
      policy_ = &*arrivals_;
    }
    faultPolicy_.emplace(*policy_, *injector_);
    if (dike_ != nullptr)
      faultPolicy_->setFaultsActiveListener(
          [dike = dike_](bool active) { dike->setFaultsActiveHint(active); });
    policy_ = &*faultPolicy_;
  }
}

// The sinks RunSpec::telemetry asks for. Outputs are probed here, before
// the simulation, so an unwritable path fails in milliseconds, not after a
// full run; the artifacts themselves are committed atomically by finish().
void RunSession::attachTelemetry() {
  const RunTelemetry& tel = spec_.telemetry;
  for (const std::string* path : {&tel.eventsCsvPath, &tel.chromeTracePath})
    if (!path->empty() && !std::ofstream{*path, std::ios::app})
      throw std::runtime_error{"cannot open telemetry output for writing: " +
                               *path};
  if (tel.wantsEvents()) {
    recorder_ = std::make_unique<sim::TraceRecorder>(tel.traceCapacity);
    machine_->setTraceRecorder(recorder_.get());
  }
  if (!tel.quantumMetricsPath.empty()) {
    streamFile_ =
        std::make_unique<telemetry::QuantumStreamFile>(tel.quantumMetricsPath);
    attachQuantumStream(streamFile_->writer());
  }
  if (tel.livePublish) {
    livePublisher_ = std::make_unique<LiveQuantumPublisher>(*quantumRecorder_);
    quantumRecorder_->addConsumer(*livePublisher_);
  }
  // The Chrome trace is the decision trace's only reader.
  if (tel.chromeTracePath.empty() || dike_ == nullptr) return;
  decisions_ = std::make_unique<telemetry::DecisionTrace>();
  dike_->setDecisionTrace(decisions_.get());
}

RunSession::~RunSession() = default;

void RunSession::attachQuantumStream(telemetry::QuantumStreamWriter& writer) {
  if (quantumRecorder_->streams())
    throw std::logic_error{"the run already has a quantum stream"};
  quantumRecorder_->attachWriter(writer);
  adapter_->setListener(quantumRecorder_.get());
}

void RunSession::setDecideJobs(int jobs) {
  if (auto* clustered = dynamic_cast<core::ClusteredDikeScheduler*>(dike_))
    clustered->setDecideJobs(jobs);
}

bool RunSession::stepQuantum() {
  return sim::stepQuantum(*machine_, *policy_, limits_, cursor_);
}

RunMetrics RunSession::finish(const CheckpointOptions& opts) {
  while (stepQuantum())
    if (opts.enabled() && cursor_.quantumIndex % opts.everyQuanta == 0)
      writeCheckpoint(opts.path);
  RunMetrics metrics =
      collectRunMetrics(*machine_, sim::runOutcome(*machine_), *scheduler_);
  metrics.workload = workload_.name;
  if (injector_) {
    metrics.faults = injector_->tally();
    metrics.coreFreqDips = faultPolicy_->freqDips();
  }

  const RunTelemetry& tel = spec_.telemetry;
  if (recorder_) {
    metrics.traceDropped = recorder_->dropped();
    if (recorder_->dropped() > 0)
      util::logWarn("trace recorder dropped ", recorder_->dropped(),
                    " events (capacity ", tel.traceCapacity,
                    "); raise telemetry.traceCapacity to keep the full run");
    if (!tel.eventsCsvPath.empty()) {
      std::ostringstream csv;
      writeTraceCsv(*recorder_, csv);
      util::writeFileAtomic(tel.eventsCsvPath, csv.str());
    }
    if (!tel.chromeTracePath.empty()) {
      const util::JsonValue doc = buildChromeTrace(
          recorder_->events(), metaFromMachine(*machine_),
          decisions_ && !decisions_->records().empty() ? decisions_.get()
                                                       : nullptr);
      util::writeFileAtomic(tel.chromeTracePath, doc.dump(2) + "\n");
    }
    machine_->setTraceRecorder(nullptr);
  }
  if (decisions_ && decisions_->dropped() > 0)
    util::logWarn("decision trace dropped ", decisions_->dropped(),
                  " quantum records");
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
  ar.io("quantumIndex", cursor_.quantumIndex);
  ar.io("nextQuantumAt", cursor_.nextQuantumAt);
  ar.io("maxTicks", limits_.maxTicks);
  // The churn cursor precedes the machine: a restore re-adds the processes
  // of the arrivals already injected, so the machine's thread and process
  // lists have the shape its section expects.
  if (hasChurn()) {
    int injected = arrivals_->injectedArrivals();
    ar.io("churnInjected", injected);
    if constexpr (Ar::kLoading) {
      // A freshly built session has every arrival still pending.
      if (injected < 0 || injected > arrivals_->pendingArrivals())
        throw ckpt::CheckpointError{
            "checkpointed churn cursor " + std::to_string(injected) +
            " is outside the plan's " +
            std::to_string(arrivals_->pendingArrivals()) + " arrivals"};
      arrivals_->readmit(*machine_, injected);
    }
  }
  ar.nested(*machine_);
  ar.nested(*scheduler_);
  ar.expect("hasFaultLayer", injector_.has_value());
  if (injector_) {
    ar.nested(*injector_);
    ar.nested(*faultPolicy_);
  }
  // The stream cursor rides in the payload when a stream is attached:
  // resumed NDJSON records are only byte-identical if the recorder's
  // path-dependent accumulators restart exactly (format version 2). A
  // restore without a stream loads the cursor all the same; its payloads
  // then lose the cursor, symmetrically on both sides of a dike_diff
  // comparison.
  bool hasStream = quantumRecorder_->streams();
  ar.io("hasQuantumStream", hasStream);
  if (hasStream) ar.nested(*quantumRecorder_);
}

// The payload is a "run" section: the spec the session is rebuilt from,
// which restore() must read before a session exists, then fields().
void RunSession::savePayload(ckpt::BinWriter& w) const {
  if (dvfs_ || (arrivals_ && !hasChurn()))
    throw std::logic_error{
        "cannot checkpoint a run with explicit arrivals or a frequency "
        "script: neither is part of a checkpoint"};
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
