// The per-quantum metrics stream listener RunSession attaches for
// RunSpec::telemetry and for checkpointed/supervised runs.
//
// It is a serialisable component for one reason: crash-tolerant resume. It
// carries path-dependent state — the SlowdownEstimator's cumulative
// attained-work accumulators, the 0-based quantum counter, and the previous
// quantum's end tick — and a resumed run can only append byte-identical
// NDJSON records if that state is checkpointed and restored exactly, not
// recomputed. Its field list rides in the same named binary archive the
// rest of the run state uses.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/prediction_tracker.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/quantum_stream.hpp"
#include "telemetry/slowdown.hpp"
#include "util/types.hpp"

namespace dike::core {
class DikeScheduler;
}  // namespace dike::core

namespace dike::exp {

/// Fold the sample of the quantum ending at machine.now() into `slowdown`
/// (the quantum began at `lastTick`, which advances to now). The metrics
/// stream, the live publisher and the soak's SLO check each run one
/// estimator through it, so their slowdowns agree sample for sample.
void observeQuantum(telemetry::SlowdownEstimator& slowdown,
                    util::Tick& lastTick, const sim::Machine& machine,
                    const sim::QuantumSample& sample);

/// Streams one QuantumRecord per quantum to the metrics writer. For Dike
/// variants the record carries the Observer's fairness signal, workload
/// class, CoreBW partition, optimizer parameters, and the predictor's value
/// against the realised rate; other policies leave those fields NaN/-1 so
/// the schema is scheduler-independent.
class QuantumMetricsListener final : public sched::QuantumListener {
 public:
  /// `dike` is the run's scheduler when it is a Dike variant, else null.
  explicit QuantumMetricsListener(telemetry::QuantumStreamWriter& writer,
                                  const core::DikeScheduler* dike)
      : writer_(&writer), dike_(dike) {}

  void afterQuantum(const sim::Machine& machine,
                    const sched::SchedulerView& view,
                    sched::Scheduler& scheduler) override;

  /// Records emitted so far == the index the next record will carry.
  [[nodiscard]] std::int64_t quantumIndex() const noexcept {
    return quantumIndex_;
  }

 private:
  friend struct ckpt::Access;
  /// The stream cursor — counter, last tick, slowdown accumulators — as one
  /// archive section (ckpt/fields.hpp); a load replaces the estimator's
  /// state wholesale.
  template <class Ar>
  void fields(Ar& ar);

  telemetry::QuantumStreamWriter* writer_;
  const core::DikeScheduler* dike_;
  std::int64_t quantumIndex_ = 0;
  util::Tick lastTick_ = 0;
  telemetry::SlowdownEstimator slowdown_;
  telemetry::QuantumRecord rec_;
  std::unordered_map<int, core::ScoredPrediction> scored_;
};

}  // namespace dike::exp
