// One run path, and deterministic checkpoint/restore and differential
// replay on top of it.
//
// RunSession is the only place a simulated run is assembled and (through
// sim::stepQuantum) stepped; every run entry point is a thin caller. A
// checkpoint captures the complete run state at a quantum boundary — the
// machine, the scheduler, the fault layer, the churn cursor when the plan
// has churn, and the run cursor (the next quantum deadline is not derivable
// from the clock under adaptive quanta). Accumulators are serialized raw,
// not recomputed, because floating-point accumulation is path dependent, so
// a restored run's final report is byte-identical to the uninterrupted
// run's. The payload embeds the RunSpec as JSON: restore rebuilds the stack
// through the same constructor a fresh run uses, then overwrites the
// mutable state, validating before anything is committed. Telemetry sinks
// are observers and not checkpointed, except the quantum stream's cursor.
//
// tools/dike_diff restores two checkpoints and steps them in lockstep,
// reporting the first named quantity whose serialized state diverges.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "exp/dvfs.hpp"
#include "exp/dynamic.hpp"
#include "exp/runner.hpp"
#include "fault/fault_policy.hpp"
#include "sched/scheduler.hpp"
#include "util/json.hpp"

namespace dike::telemetry {
class DecisionTrace;
class QuantumStreamFile;
class QuantumStreamWriter;
}  // namespace dike::telemetry

namespace dike::exp {

class QuantumRecordConsumer;
class QuantumRecorder;

/// Encode a RunSpec as JSON (embedded in every checkpoint). 64-bit seeds
/// are written as decimal strings — JSON numbers are doubles and lose
/// integer precision above 2^53. Telemetry paths are not encoded.
[[nodiscard]] util::JsonValue runSpecToJson(const RunSpec& spec);

/// Decode a RunSpec encoded by runSpecToJson. Throws std::runtime_error
/// with the offending field on malformed input.
[[nodiscard]] RunSpec runSpecFromJson(const util::JsonValue& doc);

/// Encode run metrics as JSON. Deterministic: object keys sort, doubles
/// print with %.17g round-trip precision — two bit-identical runs dump
/// byte-identical reports (the surface the replay tests compare).
[[nodiscard]] util::JsonValue runMetricsToJson(const RunMetrics& metrics);

/// Decode metrics encoded by runMetricsToJson (the resumable sweep's state
/// file stores completed results this way). Round-trips exactly: %.17g
/// doubles parse back bit-identical.
[[nodiscard]] RunMetrics runMetricsFromJson(const util::JsonValue& doc);

/// Rolling-checkpoint settings for finish()/runWorkloadCheckpointed.
struct CheckpointOptions {
  std::string path;             ///< checkpoint file (atomically replaced)
  std::int64_t everyQuanta = 0; ///< write after every N completed quanta

  [[nodiscard]] bool enabled() const noexcept {
    return !path.empty() && everyQuanta > 0;
  }
};

/// What a run carries beyond its RunSpec. None of it is part of a
/// checkpoint: writeCheckpoint() refuses a session with an arrival schedule
/// or a frequency script (the consumer only observes).
struct RunAttachments {
  /// Reads every quantum's record after the telemetry sinks (the soak's
  /// invariant and SLO checker). Must outlive the session.
  QuantumRecordConsumer* consumer = nullptr;
  /// Open-system arrivals (exp/dynamic.hpp): the run is not over while one
  /// is pending. Cannot be combined with fault-plan churn.
  std::vector<Arrival> arrivals;
  /// Scripted socket frequency changes (exp/dvfs.hpp).
  std::vector<FrequencyChange> frequencyScript;
};

/// One simulated run, steppable one quantum at a time and checkpointable at
/// any quantum boundary. The constructor assembles the whole stack from the
/// spec: the machine with its workload and placement, the scheduler and its
/// adapter, the fault layer with churn arrivals from `spec.faults`, and the
/// sinks `spec.telemetry` asks for, plus `attachments`. One QuantumRecorder
/// builds each quantum's record for every sink that reads it; it is the
/// adapter's listener only when such a reader exists. Not movable — the
/// policies and readers hold pointers into sibling members — so restore()
/// hands back a unique_ptr.
class RunSession {
 public:
  explicit RunSession(RunSpec spec, RunAttachments attachments = {});
  ~RunSession();
  RunSession(const RunSession&) = delete;
  RunSession& operator=(const RunSession&) = delete;

  /// Attach a per-quantum metrics stream: every subsequent stepQuantum()
  /// emits one record into `writer` (which must outlive the session). The
  /// stream cursor — record counter, last tick, slowdown accumulators —
  /// becomes part of checkpointPayload(), so a run restored with a writer
  /// appends records byte-identical to the uninterrupted stream's. Throws
  /// std::logic_error when the session already streams.
  void attachQuantumStream(telemetry::QuantumStreamWriter& writer);

  /// Advance the run through exactly one more quantum boundary. Returns
  /// false once the run is over (sim::stepQuantum) instead.
  bool stepQuantum();

  /// Run to completion from the current cursor, writing a rolling
  /// checkpoint every opts.everyQuanta completed quanta when enabled;
  /// collect the final report and commit the telemetry artifacts.
  [[nodiscard]] RunMetrics finish(const CheckpointOptions& opts = {});

  /// Serialize the complete current state (spec, cursor, machine,
  /// scheduler, fault layer) into a checkpoint payload. Throws
  /// std::logic_error when the session carries an arrival schedule or a
  /// frequency script, which no checkpoint can hold.
  [[nodiscard]] std::string checkpointPayload() const;

  /// checkpointPayload() wrapped in the versioned, checksummed container,
  /// written atomically (tmp + rename). The payload is encoded into a
  /// buffer the session keeps, so rolling checkpoints stop allocating once
  /// it has reached payload size.
  void writeCheckpoint(const std::string& path);

  /// Rebuild a session from a checkpoint file: reconstructs the stack from
  /// the embedded RunSpec, then overwrites the mutable state. Throws
  /// ckpt::CheckpointError on any corruption, version, or schema mismatch —
  /// never returns a partially-restored session. When the checkpoint was
  /// taken from a stream-attached run and `stream` is given, the stream is
  /// reattached with the recorder's saved cursor (byte-identical resumed
  /// records); with `stream == nullptr` the recorder still loads the cursor
  /// but nothing reads it and a re-save drops it, so stream-less callers
  /// (dike_diff) restore supervised checkpoints too.
  [[nodiscard]] static std::unique_ptr<RunSession> restore(
      const std::string& path,
      telemetry::QuantumStreamWriter* stream = nullptr);

  /// Override the clustered scheduler's plan-phase worker budget for this
  /// session (see ClusterConfig::decideJobs; the knob is not part of any
  /// checkpoint, so a restored run may pick a different value freely).
  /// No-op when the active scheduler is not the clustered Dike.
  void setDecideJobs(int jobs);

  /// Completed quanta so far.
  [[nodiscard]] std::int64_t quantumIndex() const noexcept {
    return cursor_.quantumIndex;
  }
  [[nodiscard]] const sim::Machine& machine() const noexcept {
    return *machine_;
  }
  [[nodiscard]] const RunSpec& spec() const noexcept { return spec_; }
  /// The arrival injector (explicit arrivals or churn), null without one.
  [[nodiscard]] const ArrivalInjector* arrivals() const noexcept {
    return arrivals_ ? &*arrivals_ : nullptr;
  }

 private:
  void attachTelemetry();
  [[nodiscard]] bool hasChurn() const noexcept {
    return spec_.faults && spec_.faults->churn.arrivals > 0;
  }

  RunSpec spec_;
  wl::WorkloadSpec workload_;
  std::optional<sim::Machine> machine_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  core::DikeScheduler* dike_ = nullptr;  ///< scheduler_ when a Dike variant
  std::optional<sched::SchedulerAdapter> adapter_;
  std::optional<DvfsScript> dvfs_;
  std::optional<ArrivalInjector> arrivals_;
  std::optional<fault::FaultInjector> injector_;
  std::optional<fault::FaultInjectionPolicy> faultPolicy_;
  sim::QuantumPolicy* policy_ = nullptr;
  sim::RunLimits limits_{};
  sim::RunCursor cursor_{};
  std::unique_ptr<QuantumRecorder> quantumRecorder_;
  std::unique_ptr<telemetry::QuantumStreamFile> streamFile_;
  std::unique_ptr<QuantumRecordConsumer> livePublisher_;
  std::unique_ptr<sim::TraceRecorder> recorder_;
  std::unique_ptr<telemetry::DecisionTrace> decisions_;
  std::string payloadBuffer_;  ///< reused by writeCheckpoint

  /// The checkpointed run state after the spec (ckpt/fields.hpp).
  template <class Ar>
  void fields(Ar& ar);
  void savePayload(ckpt::BinWriter& w) const;
};

/// runWorkload with rolling checkpoints.
[[nodiscard]] RunMetrics runWorkloadCheckpointed(const RunSpec& spec,
                                                 const CheckpointOptions& opts);

/// Resume a checkpointed run to completion and collect the final report —
/// byte-identical to the report of the uninterrupted run. `decideJobs >= 0`
/// overrides the clustered scheduler's plan-phase worker budget for the
/// resumed portion (-1 keeps the spec's value); the result is byte-
/// identical either way.
[[nodiscard]] RunMetrics resumeWorkload(const std::string& checkpointPath,
                                        const CheckpointOptions& opts = {},
                                        int decideJobs = -1);

/// Compare two checkpoint payloads token by token. Returns nullopt when
/// they are identical, else a one-line description of the first diverging
/// quantity (its path plus both rendered values).
[[nodiscard]] std::optional<std::string> firstDivergence(
    std::string_view payloadA, std::string_view payloadB);

}  // namespace dike::exp
