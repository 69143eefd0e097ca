#include "exp/quantum_recorder.hpp"

#include <limits>

#include "ckpt/fields.hpp"
#include "core/dike_scheduler.hpp"
#include "sim/machine.hpp"

namespace dike::exp {

namespace {
constexpr double kQuietNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

const core::Observer* QuantumRecorder::observerOf(int coreId) const {
  if (dike_ == nullptr) return nullptr;
  const core::Observer& observer = dike_->instanceFor(coreId).observer();
  return observer.ready() ? &observer : nullptr;
}

int QuantumRecorder::highBandwidthCore(int coreId) const {
  const core::Observer* observer = observerOf(coreId);
  if (observer == nullptr) return -1;
  return observer->isHighBandwidthCore(coreId) ? 1 : 0;
}

void QuantumRecorder::afterQuantum(const sim::Machine& machine,
                                   const sched::SchedulerView& view,
                                   sched::Scheduler& scheduler) {
  // Slowdown proxy: fold this quantum's access rates into the estimator
  // before building the record, so per-thread slowdown and the quantum's
  // fairness spread come from one closed computation.
  const sim::QuantumSample& sample = view.sample();
  slowdown_.beginQuantum(util::ticksToSeconds(machine.now() - lastTick_));
  lastTick_ = machine.now();
  for (const sim::ThreadSample& s : sample.threads) {
    if (s.finished || s.coreId < 0) continue;
    slowdown_.add(s.threadId, s.processId, s.accessRate);
  }
  slowdown_.finishQuantum();

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

  scored_.clear();
  if (dike_ != nullptr) {
    const core::QuantumDecisionStats& stats = dike_->lastQuantumStats();
    rec.unfairness = stats.unfairness;
    rec.workloadClass = toString(stats.workloadType);
    rec.quantaLengthMs = dike_->params().quantaLengthMs;
    rec.swapSize = dike_->params().swapSize;
    // Each pipeline instance scored the threads sampled on its own cores.
    // Instances own contiguous core runs, so walking the cores meets each
    // one in a single run.
    const core::DikeScheduler* previous = nullptr;
    for (int core = 0; core < view.coreCount(); ++core) {
      const core::DikeScheduler& owner = dike_->instanceFor(core);
      if (&owner == previous) continue;
      previous = &owner;
      for (const core::ScoredPrediction& p : owner.predictions().lastScored())
        scored_.emplace(p.threadId, p);
    }
  }

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
    if (const core::Observer* observer = observerOf(s.coreId)) {
      t.coreBwEstimate = observer->coreBw(s.coreId);
      t.highBandwidthCore = observer->isHighBandwidthCore(s.coreId) ? 1 : 0;
    }
    if (const auto it = scored_.find(s.threadId); it != scored_.end()) {
      t.predictedRate = it->second.predicted;
      t.realizedRate = it->second.actual;
      t.predictionError = it->second.error;
    }
    rec.threads.push_back(std::move(t));
  }

  if (writer_ != nullptr) writer_->write(rec);
  for (QuantumRecordConsumer* consumer : consumers_)
    consumer->onRecord(rec, view);
}

template <class Ar>
void QuantumRecorder::fields(Ar& ar) {
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

DIKE_CKPT_FIELDS(QuantumRecorder);

}  // namespace dike::exp
