// Deterministic checkpoint/restore and differential replay.
//
// A checkpoint captures the complete run state at a quantum boundary — the
// machine (clock, thread progress, placement, RNG stream, counters), the
// active scheduler (Dike's Observer moving means, prediction-tracker error
// state, Decider cooldowns, fault-injector RNG forks), and the run cursor
// (completed-quantum count plus the next quantum deadline, which is not
// derivable from the clock under adaptive quanta). A run restored from a
// checkpoint produces a final report byte-identical to the uninterrupted
// run: every accumulator is serialized raw rather than recomputed, because
// floating-point accumulation is path dependent.
//
// The checkpoint payload embeds the full RunSpec as JSON, so restore
// rebuilds the machine/scheduler/fault stack exactly as runWorkload would
// and then overwrites the mutable state — validation happens before any
// mutation, so a corrupt or mismatched checkpoint never yields a
// half-restored session. Telemetry attachments are deliberately not part of
// a checkpoint: they are read-only observers and checkpointed runs do not
// carry them.
//
// tools/dike_diff builds on the same machinery: it restores two checkpoints
// and steps them in lockstep, comparing the serialized state after every
// quantum and reporting the first named quantity that diverges.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "exp/runner.hpp"
#include "fault/fault_policy.hpp"
#include "util/json.hpp"

namespace dike::telemetry {
class QuantumStreamWriter;
}  // namespace dike::telemetry

namespace dike::exp {

class QuantumMetricsListener;

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

/// One checkpointable run: the same machine/scheduler/fault-layer stack
/// runWorkload builds (minus telemetry), plus the run cursor, steppable one
/// quantum at a time. Not movable — the fault policy holds pointers into
/// sibling members — so restore() hands back a unique_ptr.
class RunSession {
 public:
  explicit RunSession(RunSpec spec);
  ~RunSession();
  RunSession(const RunSession&) = delete;
  RunSession& operator=(const RunSession&) = delete;

  /// Attach a per-quantum metrics stream: every subsequent stepQuantum()
  /// emits one record into `writer` (which must outlive the session). The
  /// stream cursor — record counter, last tick, slowdown accumulators —
  /// becomes part of checkpointPayload(), so a run restored with a writer
  /// appends records byte-identical to the uninterrupted stream's.
  void attachQuantumStream(telemetry::QuantumStreamWriter& writer);

  /// Advance the run through exactly one more quantum boundary. Returns
  /// false once the run finished (or hit the tick limit) instead.
  bool stepQuantum();

  /// Run to completion from the current cursor, writing a rolling
  /// checkpoint every opts.everyQuanta completed quanta when enabled, and
  /// collect the final report.
  [[nodiscard]] RunMetrics finish(const CheckpointOptions& opts = {});

  /// Serialize the complete current state (spec, cursor, machine,
  /// scheduler, fault layer) into a checkpoint payload.
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
  /// taken from a stream-attached run and `stream` is given, the listener
  /// is reattached with its saved cursor (byte-identical resumed records);
  /// with `stream == nullptr` the cursor is read and discarded, so
  /// stream-less consumers (dike_diff) restore supervised checkpoints too.
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
    return quantumIndex_;
  }
  [[nodiscard]] const sim::Machine& machine() const noexcept {
    return *machine_;
  }
  [[nodiscard]] const RunSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] bool done() const;

 private:
  RunSpec spec_;
  wl::WorkloadSpec workload_;
  std::optional<sim::Machine> machine_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::optional<sched::SchedulerAdapter> adapter_;
  std::optional<fault::FaultInjector> injector_;
  std::optional<fault::FaultInjectionPolicy> faultPolicy_;
  sim::QuantumPolicy* policy_ = nullptr;
  sim::RunLimits limits_{};
  std::int64_t quantumIndex_ = 0;
  util::Tick nextQuantumAt_ = -1;  ///< < 0 until the first quantum
  std::unique_ptr<QuantumMetricsListener> streamListener_;
  std::string payloadBuffer_;  ///< reused by writeCheckpoint

  /// The checkpointed run state after the spec (ckpt/fields.hpp).
  template <class Ar>
  void fields(Ar& ar);
  void savePayload(ckpt::BinWriter& w) const;
};

/// runWorkload with rolling checkpoints (no telemetry attachments).
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
