// The per-quantum recorder: each quantum's telemetry::QuantumRecord, built
// once and handed to everything that reads it — the metrics stream writer,
// the live plane, and a RunAttachments consumer (the soak's checker).
// RunSession installs it as the adapter's only listener, and only when one
// of those readers is present.
//
// It holds the run's only SlowdownEstimator, so the stream, the live
// histograms and the soak's SLO see the same slowdowns by construction. It
// reads Dike's facts in one place, for flat and clustered runs alike: the
// fairness signal and workload class from lastQuantumStats() (the worst
// cluster's when clustered), the CoreBW partition and scored predictions
// from the pipeline instance that owns the core.
//
// It is a serialisable component for one reason: crash-tolerant resume. It
// carries path-dependent state — the estimator's cumulative attained-work
// accumulators, the 0-based quantum counter, and the previous quantum's end
// tick — and a resumed run can only append byte-identical NDJSON records if
// that state is checkpointed and restored exactly, not recomputed. Its
// field list rides in the same named binary archive the rest of the run
// state uses.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/prediction_tracker.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/quantum_stream.hpp"
#include "telemetry/slowdown.hpp"
#include "util/types.hpp"

namespace dike::core {
class DikeScheduler;
class Observer;
}  // namespace dike::core

namespace dike::exp {

/// Reads each quantum's record, together with the view it was built from
/// (the quantum's sample, placement and actuation tallies).
class QuantumRecordConsumer {
 public:
  virtual ~QuantumRecordConsumer() = default;
  virtual void onRecord(const telemetry::QuantumRecord& record,
                        const sched::SchedulerView& view) = 0;
};

/// Builds one QuantumRecord per quantum. For Dike variants the record
/// carries the Observer's fairness signal, workload class, CoreBW
/// partition, optimizer parameters, and the predictor's value against the
/// realised rate; other policies leave those fields NaN/-1 so the schema is
/// scheduler-independent.
class QuantumRecorder final : public sched::QuantumListener {
 public:
  /// `dike` is the run's scheduler when it is a Dike variant, else null.
  explicit QuantumRecorder(const core::DikeScheduler* dike) : dike_(dike) {}

  /// Stream every record into `writer`, before any consumer sees it. The
  /// writer must outlive the recorder.
  void attachWriter(telemetry::QuantumStreamWriter& writer) noexcept {
    writer_ = &writer;
  }
  /// Hand every record to `consumer`, after the writer, in the order
  /// consumers were added. The consumer must outlive the recorder.
  void addConsumer(QuantumRecordConsumer& consumer) {
    consumers_.push_back(&consumer);
  }
  [[nodiscard]] bool streams() const noexcept { return writer_ != nullptr; }
  /// True when anything reads the record.
  [[nodiscard]] bool hasReaders() const noexcept {
    return streams() || !consumers_.empty();
  }

  void afterQuantum(const sim::Machine& machine,
                    const sched::SchedulerView& view,
                    sched::Scheduler& scheduler) override;

  /// 1 when `coreId` sits in the higher-bandwidth half of its observer's
  /// partition, 0 in the lower half, -1 when no partition is known (not a
  /// Dike run, or the owning observer has not observed yet).
  [[nodiscard]] int highBandwidthCore(int coreId) const;

 private:
  friend struct ckpt::Access;
  /// The stream cursor — counter, last tick, slowdown accumulators — as one
  /// archive section (ckpt/fields.hpp); a load replaces the estimator's
  /// state wholesale.
  template <class Ar>
  void fields(Ar& ar);
  /// The ready observer of the pipeline instance that owns `coreId`, or
  /// null (not a Dike run, or that observer has not observed yet).
  [[nodiscard]] const core::Observer* observerOf(int coreId) const;

  const core::DikeScheduler* dike_;
  telemetry::QuantumStreamWriter* writer_ = nullptr;
  std::vector<QuantumRecordConsumer*> consumers_;
  std::int64_t quantumIndex_ = 0;
  util::Tick lastTick_ = 0;
  telemetry::SlowdownEstimator slowdown_;
  /// The record and the scored-prediction index are member buffers: one
  /// recorder serves one run, so per-quantum churn reuses their capacity
  /// (thread rows, strings, hash buckets) instead of reallocating.
  telemetry::QuantumRecord rec_;
  std::unordered_map<int, core::ScoredPrediction> scored_;
};

}  // namespace dike::exp
