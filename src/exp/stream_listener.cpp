#include "exp/stream_listener.hpp"

#include <limits>

#include "ckpt/fields.hpp"
#include "core/dike_scheduler.hpp"
#include "sim/machine.hpp"

namespace dike::exp {

namespace {
constexpr double kQuietNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

void observeQuantum(telemetry::SlowdownEstimator& slowdown,
                    util::Tick& lastTick, const sim::Machine& machine,
                    const sim::QuantumSample& sample) {
  slowdown.beginQuantum(util::ticksToSeconds(machine.now() - lastTick));
  lastTick = machine.now();
  for (const sim::ThreadSample& s : sample.threads) {
    if (s.finished || s.coreId < 0) continue;
    slowdown.add(s.threadId, s.processId, s.accessRate);
  }
  slowdown.finishQuantum();
}

void QuantumMetricsListener::afterQuantum(const sim::Machine& machine,
                                          const sched::SchedulerView& view,
                                          sched::Scheduler& scheduler) {
  // Slowdown proxy: feed this quantum's access rates into the shared
  // estimator before building the record, so per-thread slowdown and the
  // quantum's fairness spread come from the same closed computation the
  // live publisher uses (the live-vs-file differential test relies on
  // the two paths agreeing exactly).
  observeQuantum(slowdown_, lastTick_, machine, view.sample());
  // The record and the scored-prediction index are member buffers: one
  // listener serves one run, so per-quantum churn reuses their capacity
  // (thread rows, strings, hash buckets) instead of reallocating.
  telemetry::QuantumRecord& rec = rec_;
  rec.threads.clear();
  rec.workloadClass.clear();
  rec.tick = machine.now();
  rec.quantumIndex = quantumIndex_++;
  rec.scheduler.assign(scheduler.name());
  rec.unfairness = kQuietNaN;
  rec.quantaLengthMs = -1;
  rec.swapSize = -1;
  rec.swapsExecuted = view.swapsThisQuantum();
  rec.migrationsExecuted = view.migrationsThisQuantum();
  rec.fairnessSpread = slowdown_.fairnessSpread();

  const core::DikeScheduler* const dike = dike_;
  std::unordered_map<int, core::ScoredPrediction>& scored = scored_;
  scored.clear();
  if (dike != nullptr) {
    const core::Observer& observer = dike->observer();
    rec.unfairness = observer.systemUnfairness();
    rec.workloadClass = toString(observer.workloadType());
    rec.quantaLengthMs = dike->params().quantaLengthMs;
    rec.swapSize = dike->params().swapSize;
    for (const core::ScoredPrediction& p : dike->predictions().lastScored())
      scored.emplace(p.threadId, p);
  }

  const sim::QuantumSample& sample = view.sample();
  for (const sim::ThreadSample& s : sample.threads) {
    if (s.finished || s.coreId < 0) continue;
    telemetry::QuantumThreadRecord t;
    t.threadId = s.threadId;
    t.processId = s.processId;
    t.coreId = s.coreId;
    t.accessRate = s.accessRate;
    t.llcMissRatio = s.llcMissRatio;
    t.coreAchievedBw =
        sample.coreAchievedBw[static_cast<std::size_t>(s.coreId)];
    t.coreBwEstimate = kQuietNaN;
    t.predictedRate = kQuietNaN;
    t.realizedRate = kQuietNaN;
    t.predictionError = kQuietNaN;
    t.slowdown = slowdown_.slowdownOf(s.threadId);
    if (dike != nullptr && dike->observer().ready()) {
      t.coreBwEstimate = dike->observer().coreBw(s.coreId);
      t.highBandwidthCore =
          dike->observer().isHighBandwidthCore(s.coreId) ? 1 : 0;
    }
    if (const auto it = scored.find(s.threadId); it != scored.end()) {
      t.predictedRate = it->second.predicted;
      t.realizedRate = it->second.actual;
      t.predictionError = it->second.error;
    }
    rec.threads.push_back(std::move(t));
  }
  writer_->write(rec);
}

template <class Ar>
void QuantumMetricsListener::fields(Ar& ar) {
  ar.section("quantumStream", [&] {
    ar.io("quantumIndex", quantumIndex_);
    ar.io("lastTick", lastTick_);
    telemetry::SlowdownEstimator::Snapshot threads = slowdown_.snapshot();
    std::int64_t count = util::isize(threads);
    ar.io("threadCount", count);
    using Accumulator = telemetry::SlowdownEstimator::Accumulator;
    ar.columns("threadIds", threads,
               ckpt::col("processIds", &Accumulator::processId),
               ckpt::col("cumWork", &Accumulator::cum));
    if constexpr (Ar::kLoading) {
      if (count != util::isize(threads))
        throw ckpt::CheckpointError{
            "quantum-stream cursor arrays disagree with the declared thread "
            "count; the checkpoint is internally inconsistent"};
      slowdown_.restore(threads);
    }
  });
}

DIKE_CKPT_FIELDS(QuantumMetricsListener);

}  // namespace dike::exp
