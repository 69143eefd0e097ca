#include "core/prediction_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "ckpt/state_io.hpp"

namespace dike::core {

double* PredictionTracker::findPending(int threadId) noexcept {
  const auto id = static_cast<std::size_t>(threadId);
  if (id >= pendingSlot_.size() || pendingSlot_[id] < 0) return nullptr;
  return &pending_[static_cast<std::size_t>(pendingSlot_[id])].second;
}

void PredictionTracker::clearPending() noexcept {
  for (const auto& [id, rate] : pending_)
    pendingSlot_[static_cast<std::size_t>(id)] = -1;
  pending_.clear();
}

void PredictionTracker::setPrediction(int threadId, double predictedRate) {
  if (double* rate = findPending(threadId)) {
    *rate = predictedRate;
  } else {
    setPredictionIfAbsent(threadId, predictedRate);
  }
}

void PredictionTracker::setPredictionIfAbsent(int threadId,
                                              double predictedRate) {
  const auto id = static_cast<std::size_t>(threadId);
  if (id >= pendingSlot_.size()) pendingSlot_.resize(id + 1, -1);
  if (pendingSlot_[id] >= 0) return;
  pendingSlot_[id] = util::isize(pending_);
  pending_.emplace_back(threadId, predictedRate);
}

void PredictionTracker::scoreQuantum(const sim::QuantumSample& sample,
                                     util::Tick now) {
  util::OnlineStats quantum;
  lastScored_.clear();
  for (const sim::ThreadSample& s : sample.threads) {
    const double* pending = findPending(s.threadId);
    if (pending == nullptr) continue;
    if (s.finished) continue;
    const double actual = s.accessRate;
    const double predicted = *pending;
    if (actual < kMinScoredRate || predicted < kMinScoredRate) {
      lastScored_.push_back(ScoredPrediction{
          s.threadId, predicted, actual,
          std::numeric_limits<double>::quiet_NaN()});
      continue;
    }
    const double error =
        (predicted - actual) / std::max(actual, kDenominatorFloor);
    lastScored_.push_back(ScoredPrediction{s.threadId, predicted, actual,
                                           error});
    quantum.add(error);
    overall_.add(error);
    auto [threadIt, inserted] = perThread_.try_emplace(s.threadId);
    if (inserted) threadOrder_.push_back(s.threadId);
    threadIt->second.add(error);
  }
  clearPending();

  if (quantum.count() > 0) {
    trace_.push_back(PredictionErrorPoint{
        now, static_cast<int>(quantum.count()), quantum.mean(), quantum.min(),
        quantum.max()});
  }

  if (watchdogArmed_ && quantum.count() >= 2) {
    if (std::abs(quantum.mean()) >= watchdogThreshold_)
      ++divergenceStreak_;
    else
      divergenceStreak_ = 0;
    if (divergenceStreak_ >= watchdogQuanta_) diverged_ = true;
  }
}

void PredictionTracker::armDivergenceWatchdog(double errorThreshold,
                                              int quanta) {
  watchdogArmed_ = errorThreshold > 0.0 && quanta > 0;
  watchdogThreshold_ = errorThreshold;
  watchdogQuanta_ = quanta;
  divergenceStreak_ = 0;
  diverged_ = false;
}

std::vector<double> PredictionTracker::perThreadMeanErrors() const {
  std::vector<double> means;
  means.reserve(threadOrder_.size());
  for (int id : threadOrder_) means.push_back(perThread_.at(id).mean());
  return means;
}

void PredictionTracker::reset() {
  clearPending();
  perThread_.clear();
  threadOrder_.clear();
  trace_.clear();
  lastScored_.clear();
  overall_.reset();
  divergenceStreak_ = 0;
  diverged_ = false;
}

void PredictionTracker::saveState(ckpt::BinWriter& w) const {
  w.beginSection("predictionTracker");
  {
    std::vector<std::pair<int, double>> pending = pending_;
    std::sort(pending.begin(), pending.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::int64_t> ids;
    std::vector<double> rates;
    for (const auto& [id, rate] : pending) {
      ids.push_back(id);
      rates.push_back(rate);
    }
    w.vecI64("pendingThreadIds", ids);
    w.vecF64("pendingRates", rates);
  }
  // threadOrder_ is first-appearance order; perThread_ keys are a subset of
  // it plus any thread scored before the order vector existed, so persist
  // the aggregates keyed explicitly.
  {
    std::vector<std::int64_t> order{threadOrder_.begin(), threadOrder_.end()};
    w.vecI64("threadOrder", order);
  }
  {
    const std::map<int, util::OnlineStats> perThread{perThread_.begin(),
                                                     perThread_.end()};
    w.i64("perThreadCount", static_cast<std::int64_t>(perThread.size()));
    for (const auto& [id, stats] : perThread) {
      w.beginSection("perThread");
      w.i64("threadId", id);
      ckpt::save(w, "stats", stats);
      w.endSection();
    }
  }
  w.i64("traceCount", util::isize(trace_));
  for (const PredictionErrorPoint& p : trace_) {
    w.beginSection("point");
    w.i64("tick", p.tick);
    w.i64("samples", p.samples);
    w.f64("mean", p.mean);
    w.f64("min", p.min);
    w.f64("max", p.max);
    w.endSection();
  }
  w.i64("lastScoredCount", util::isize(lastScored_));
  for (const ScoredPrediction& s : lastScored_) {
    w.beginSection("scored");
    w.i64("threadId", s.threadId);
    w.f64("predicted", s.predicted);
    w.f64("actual", s.actual);
    w.f64("error", s.error);
    w.endSection();
  }
  ckpt::save(w, "overall", overall_);
  w.i64("divergenceStreak", divergenceStreak_);
  w.boolean("diverged", diverged_);
  w.endSection();
}

void PredictionTracker::loadState(ckpt::BinReader& r) {
  PredictionTracker fresh;
  fresh.watchdogArmed_ = watchdogArmed_;
  fresh.watchdogThreshold_ = watchdogThreshold_;
  fresh.watchdogQuanta_ = watchdogQuanta_;
  r.beginSection("predictionTracker");
  const std::vector<std::int64_t> pendingIds = r.vecI64("pendingThreadIds");
  const std::vector<double> pendingRates = r.vecF64("pendingRates");
  if (pendingIds.size() != pendingRates.size())
    throw ckpt::CheckpointError{
        "prediction tracker checkpoint: pending id/rate lists disagree in "
        "length"};
  for (std::size_t i = 0; i < pendingIds.size(); ++i) {
    if (pendingIds[i] < 0 || pendingIds[i] > std::numeric_limits<int>::max())
      throw ckpt::CheckpointError{
          "prediction tracker checkpoint: pending thread id out of range"};
    fresh.setPrediction(static_cast<int>(pendingIds[i]), pendingRates[i]);
  }
  const std::vector<std::int64_t> order = r.vecI64("threadOrder");
  fresh.threadOrder_.reserve(order.size());
  for (const std::int64_t id : order)
    fresh.threadOrder_.push_back(static_cast<int>(id));
  const std::int64_t perThreadCount = r.i64("perThreadCount");
  for (std::int64_t i = 0; i < perThreadCount; ++i) {
    r.beginSection("perThread");
    const int id = static_cast<int>(r.i64("threadId"));
    util::OnlineStats stats;
    ckpt::load(r, "stats", stats);
    r.endSection();
    fresh.perThread_.emplace(id, stats);
  }
  const std::int64_t traceCount = r.i64("traceCount");
  fresh.trace_.reserve(static_cast<std::size_t>(traceCount));
  for (std::int64_t i = 0; i < traceCount; ++i) {
    r.beginSection("point");
    PredictionErrorPoint p;
    p.tick = r.i64("tick");
    p.samples = static_cast<int>(r.i64("samples"));
    p.mean = r.f64("mean");
    p.min = r.f64("min");
    p.max = r.f64("max");
    r.endSection();
    fresh.trace_.push_back(p);
  }
  const std::int64_t scoredCount = r.i64("lastScoredCount");
  fresh.lastScored_.reserve(static_cast<std::size_t>(scoredCount));
  for (std::int64_t i = 0; i < scoredCount; ++i) {
    r.beginSection("scored");
    ScoredPrediction s;
    s.threadId = static_cast<int>(r.i64("threadId"));
    s.predicted = r.f64("predicted");
    s.actual = r.f64("actual");
    s.error = r.f64("error");
    r.endSection();
    fresh.lastScored_.push_back(s);
  }
  ckpt::load(r, "overall", fresh.overall_);
  fresh.divergenceStreak_ = static_cast<int>(r.i64("divergenceStreak"));
  fresh.diverged_ = r.boolean("diverged");
  r.endSection();
  *this = std::move(fresh);
}

}  // namespace dike::core
