#include "core/prediction_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

template <class Ar>
void PredictionTracker::fields(Ar& ar) {
  ar.section("predictionTracker", [&] {
    ar.columns("pendingThreadIds", pending_, ckpt::col("pendingRates"));
    ar.io("threadOrder", threadOrder_);
    // Aggregates are keyed explicitly, in thread id order.
    std::vector<std::pair<int, util::OnlineStats>> perThread{
        perThread_.begin(), perThread_.end()};
    std::sort(perThread.begin(), perThread.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ar.list("perThreadCount", perThread, "perThread", [&](auto& row) {
      ar.id("threadId", row.first);
      ar.io("stats", row.second);
    });
    if constexpr (Ar::kLoading) {
      perThread_ = {perThread.begin(), perThread.end()};
      if (perThread_.size() != perThread.size())
        throw ckpt::CheckpointError{
            "prediction tracker checkpoint names a thread twice"};
    }
    ar.list("traceCount", trace_, "point",
            [&](PredictionErrorPoint& p) { core::fields(ar, p); });
    ar.list("lastScoredCount", lastScored_, "scored",
            [&](ScoredPrediction& s) {
              ar.io("threadId", s.threadId);
              ar.io("predicted", s.predicted);
              ar.io("actual", s.actual);
              ar.io("error", s.error);
            });
    ar.io("overall", overall_);
    ar.io("divergenceStreak", divergenceStreak_);
    ar.io("diverged", diverged_);
  });
  if constexpr (Ar::kLoading) {
    // Re-register the loaded predictions so pendingSlot_ indexes them.
    for (const auto& [id, rate] : std::exchange(pending_, {}))
      setPrediction(id, rate);
  }
}

DIKE_CKPT_FIELDS(PredictionTracker);

}  // namespace dike::core
