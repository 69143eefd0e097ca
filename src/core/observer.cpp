#include "core/observer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/state_io.hpp"
#include "telemetry/registry.hpp"

namespace dike::core {

std::string_view toString(WorkloadType type) noexcept {
  switch (type) {
    case WorkloadType::Balanced: return "balanced";
    case WorkloadType::UnbalancedCompute: return "unbalanced-compute";
    case WorkloadType::UnbalancedMemory: return "unbalanced-memory";
  }
  return "?";
}

void makeObservationInto(const sched::SchedulerView& view, Observation& out) {
  const sim::QuantumSample& sample = view.sample();
  const int cores = view.coreCount();
  const int begin = view.coreBegin();
  const int end = view.coreEnd();
  const auto n = static_cast<std::size_t>(cores);
  if (out.coreOccupant.size() != n || out.coreBegin != begin ||
      out.coreEnd != end) {
    // New geometry: prefill every slot once. Cores outside the span keep
    // the foreign sentinel and zero bandwidth for the arena's lifetime;
    // each quantum below rewrites only the span.
    out.coreOccupant.assign(n, sched::SchedulerView::kForeignCore);
    out.coreSocket.resize(n);
    for (int c = 0; c < cores; ++c)
      out.coreSocket[static_cast<std::size_t>(c)] = view.socketOf(c);
    out.sample.coreAchievedBw.assign(n, 0.0);
    out.coreBegin = begin;
    out.coreEnd = end;
  }
  // Copy-assignment reuses the per-thread rows' capacity.
  out.sample.periodTicks = sample.periodTicks;
  out.sample.threads = sample.threads;
  for (int c = begin; c < end; ++c) {
    const auto i = static_cast<std::size_t>(c);
    out.coreOccupant[i] = view.coreOccupant(c);
    out.coreSocket[i] = view.socketOf(c);
    out.sample.coreAchievedBw[i] = sample.coreAchievedBw[i];
  }
}

Observer::Observer(ObserverConfig config) : config_(config) {}

void Observer::observe(const Observation& obs) {
  if (coreBwRaw_.empty()) {
    const std::size_t cores = obs.coreOccupant.size();
    coreBwRaw_.assign(cores, 0.0);
    coreBwEffective_.assign(cores, 0.0);
    highBandwidth_.assign(cores, false);
    if (config_.symmetricMovingMean)
      coreBwWindow_.assign(cores, util::MovingMean{config_.movingMeanWindow});
  }

  classifyThreads(obs.sample);
  updateCoreBw(obs);
  partitionCores(obs);
  computeUnfairness();
  classifyWorkload();
  ++observedQuanta_;
}

Observer::ThreadState& Observer::stateOf(int threadId) {
  const auto id = static_cast<std::size_t>(threadId);
  if (id >= slotById_.size()) slotById_.resize(id + 1, -1);
  int& slot = slotById_[id];
  if (slot < 0) {
    slot = util::isize(states_);
    states_.emplace_back(config_.threadRateWindow);
  }
  return states_[static_cast<std::size_t>(slot)];
}

bool Observer::sanitize(const sim::ThreadSample& raw, ThreadState& state,
                        double& accessRate, double& llcMissRatio,
                        int& staleAge) {
  const bool bad = raw.dropped || !std::isfinite(raw.accessRate) ||
                   raw.accessRate < 0.0 ||
                   raw.accessRate > config_.maxPlausibleRate ||
                   !std::isfinite(raw.llcMissRatio) || raw.llcMissRatio < 0.0;
  if (!bad) {
    accessRate = raw.accessRate;
    // A miss *ratio* cannot exceed 1; clamp rather than reject (saturated
    // counters still carry the "memory-bound" signal).
    llcMissRatio = std::min(raw.llcMissRatio, 1.0);
    staleAge = 0;
    state.hold = HeldSample{accessRate, llcMissRatio, 0};
    state.hasHold = true;
    return true;
  }
  if (!config_.sanitizeSamples) {
    // Hygiene off (ablation): dropped samples still cannot be ingested —
    // their fields are zeros, not measurements — but corrupt values pass.
    if (raw.dropped) {
      ++discardedSamples_;
      return false;
    }
    accessRate = raw.accessRate;
    llcMissRatio = raw.llcMissRatio;
    staleAge = 0;
    return true;
  }
  if (!state.hasHold || state.hold.age >= config_.maxSampleHoldQuanta) {
    // Nothing trustworthy to hold: treat the thread as unobserved this
    // quantum instead of feeding garbage into the moving means.
    ++discardedSamples_;
    DIKE_COUNTER("core.observer.sample_discarded");
    return false;
  }
  ++state.hold.age;
  accessRate = state.hold.accessRate;
  llcMissRatio = state.hold.llcMissRatio;
  staleAge = state.hold.age;
  ++heldSamples_;
  DIKE_COUNTER("core.observer.sample_held");
  return true;
}

void Observer::classifyThreads(const sim::QuantumSample& sample) {
  threads_.clear();
  memCount_ = 0;
  compCount_ = 0;
  // Guard zero-length quanta (adaptive policies can in principle sample
  // back-to-back): no time passed, so rates are undefined — skip the
  // cumulative-rate accrual rather than divide by zero.
  const double periodSec =
      sample.periodTicks > 0
          ? static_cast<double>(sample.periodTicks) * util::kTickSeconds
          : 0.0;
  for (const sim::ThreadSample& s : sample.threads) {
    if (s.finished || s.coreId < 0) continue;
    ThreadInfo info;
    info.threadId = s.threadId;
    info.processId = s.processId;
    info.coreId = s.coreId;
    ThreadState& state = stateOf(s.threadId);
    if (!sanitize(s, state, info.accessRate, info.llcMissRatio,
                  info.staleAge))
      continue;
    state.hasRate = true;
    state.rate.add(info.accessRate);
    info.avgAccessRate = state.rate.value();
    state.hasCum = true;
    state.cum.accesses += info.accessRate * periodSec;
    state.cum.seconds += periodSec;
    info.cumAccessRate = state.cum.seconds > 0.0
                             ? state.cum.accesses / state.cum.seconds
                             : 0.0;
    info.cls = info.llcMissRatio > config_.llcMissThreshold
                   ? ThreadClass::Memory
                   : ThreadClass::Compute;
    (info.cls == ThreadClass::Memory ? memCount_ : compCount_) += 1;
    threads_.push_back(info);
  }

  // Deficits: starvation relative to sibling threads of the same process.
  // Computed before the sort so the per-process accumulation order (sample
  // order) matches the historical behaviour exactly.
  accumulatePerProcess();
  for (ThreadInfo& t : threads_) {
    double mean = 0.0;
    for (const auto& [pid, stats] : perProcess_)
      if (pid == t.processId) {
        mean = stats.mean();
        break;
      }
    t.deficit = mean > config_.processRateFloor
                    ? 1.0 - t.cumAccessRate / mean
                    : 0.0;
  }

  const auto byRate = [](const ThreadInfo& a, const ThreadInfo& b) {
    if (a.avgAccessRate != b.avgAccessRate)
      return a.avgAccessRate < b.avgAccessRate;
    return a.threadId < b.threadId;
  };

  // Index the fresh (sample-order) list by id, then decide between the
  // incremental repair path and a full sort. Membership is unchanged when
  // the previous order has the same length and every id it names is still
  // live — distinct ids on both sides make that a bijection. The index
  // holds exactly prevOrder_'s ids on entry; resetting just those keeps
  // the cost at this observer's threads, not the largest thread id.
  for (int id : prevOrder_) threadIndexById_[static_cast<std::size_t>(id)] = -1;
  indexThreads();
  bool sameMembership = prevOrder_.size() == threads_.size();
  if (sameMembership)
    for (int id : prevOrder_)
      if (threadIndexById_[static_cast<std::size_t>(id)] < 0) {
        sameMembership = false;
        break;
      }

  if (sameMembership) {
    // Rates drift slowly quantum to quantum, so the previous sorted order
    // is near-sorted for the new keys: permute into it and repair with an
    // adaptive insertion sort (O(n + inversions)). The comparator is a
    // strict total order, so this yields the identical sequence a full
    // sort would.
    DIKE_COUNTER("core.observer.sort_repair");
    orderScratch_.clear();
    for (int id : prevOrder_)
      orderScratch_.push_back(threads_[static_cast<std::size_t>(
          threadIndexById_[static_cast<std::size_t>(id)])]);
    threads_.swap(orderScratch_);
    for (std::size_t i = 1; i < threads_.size(); ++i) {
      ThreadInfo key = threads_[i];
      std::size_t j = i;
      while (j > 0 && byRate(key, threads_[j - 1])) {
        threads_[j] = threads_[j - 1];
        --j;
      }
      threads_[j] = key;
    }
  } else {
    DIKE_COUNTER("core.observer.sort_full");
    std::sort(threads_.begin(), threads_.end(), byRate);
  }
  recordThreadOrder();
}

void Observer::accumulatePerProcess() {
  perProcess_.clear();
  for (const ThreadInfo& t : threads_) {
    util::OnlineStats* stats = nullptr;
    for (auto& [pid, s] : perProcess_)
      if (pid == t.processId) {
        stats = &s;
        break;
      }
    if (stats == nullptr) {
      perProcess_.emplace_back(t.processId, util::OnlineStats{});
      stats = &perProcess_.back().second;
    }
    stats->add(t.cumAccessRate);
  }
}

void Observer::indexThreads() {
  for (int i = 0; i < util::isize(threads_); ++i) {
    const auto id =
        static_cast<std::size_t>(threads_[static_cast<std::size_t>(i)].threadId);
    if (id >= threadIndexById_.size()) threadIndexById_.resize(id + 1, -1);
    threadIndexById_[id] = i;
  }
}

void Observer::recordThreadOrder() {
  // threads_ holds the ids the index already names (a permutation of the
  // sample-order list), so re-pointing them is a full rebuild.
  indexThreads();
  prevOrder_.clear();
  for (const ThreadInfo& t : threads_) prevOrder_.push_back(t.threadId);
}

const ThreadInfo* Observer::findThread(int threadId) const noexcept {
  if (threadId < 0 ||
      threadId >= static_cast<int>(threadIndexById_.size()))
    return nullptr;
  const int idx = threadIndexById_[static_cast<std::size_t>(threadId)];
  return idx >= 0 ? &threads_[static_cast<std::size_t>(idx)] : nullptr;
}

std::pair<int, int> Observer::scanSpan(const Observation& obs) const {
  const int end = std::max(0, std::min({obs.coreEnd, util::isize(coreBwRaw_),
                                       util::isize(obs.coreOccupant)}));
  return {std::clamp(obs.coreBegin, 0, end), end};
}

void Observer::updateCoreBw(const Observation& obs) {
  // Per-core filter: rise immediately to demonstrated bandwidth, decay
  // slowly when the core hosts an undemanding thread. Only the span is
  // scanned: cores outside it belong to another cluster's observer, and
  // their entries here stay at zero.
  const auto [begin, end] = scanSpan(obs);
  for (int ci = begin; ci < end; ++ci) {
    const auto c = static_cast<std::size_t>(ci);
    const double achieved = obs.sample.coreAchievedBw[c];
    if (obs.coreOccupant[c] < 0 && achieved <= 0.0)
      continue;  // idle core: keep the last estimate
    if (config_.symmetricMovingMean) {
      coreBwWindow_[c].add(achieved);
      coreBwRaw_[c] = coreBwWindow_[c].value();
    } else if (achieved >= coreBwRaw_[c]) {
      coreBwRaw_[c] = achieved;
    } else {
      coreBwRaw_[c] = config_.coreBwDecay * coreBwRaw_[c] +
                      (1.0 - config_.coreBwDecay) * achieved;
    }
  }

  // Socket blending: a core can deliver at least `socketShare` of what the
  // best core on its (homogeneous-silicon) socket has demonstrated. A
  // socket may straddle a cluster boundary; blending over the span alone
  // keeps a neighbour cluster's capability off cores this observer cannot
  // schedule.
  int socketCount = 0;
  for (int c = begin; c < end; ++c)
    socketCount = std::max(
        socketCount, obs.coreSocket[static_cast<std::size_t>(c)] + 1);
  socketCapScratch_.assign(static_cast<std::size_t>(socketCount), 0.0);
  for (int ci = begin; ci < end; ++ci) {
    const auto c = static_cast<std::size_t>(ci);
    double& cap = socketCapScratch_[static_cast<std::size_t>(obs.coreSocket[c])];
    cap = std::max(cap, coreBwRaw_[c]);
  }
  for (int ci = begin; ci < end; ++ci) {
    const auto c = static_cast<std::size_t>(ci);
    const double blended =
        config_.socketShare *
        socketCapScratch_[static_cast<std::size_t>(obs.coreSocket[c])];
    coreBwEffective_[c] = std::max(coreBwRaw_[c], blended);
  }
}

void Observer::partitionCores(const Observation& obs) {
  // Rank every core of the span with a bandwidth estimate (occupied now,
  // or exercised earlier — a freed fast core keeps its capability); top
  // half is "high bandwidth". Another cluster's cores are never ranked.
  const auto [begin, end] = scanSpan(obs);
  std::vector<int>& known = knownScratch_;
  known.clear();
  for (int c = begin; c < end; ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (obs.coreOccupant[i] >= 0 || coreBwEffective_[i] > 0.0)
      known.push_back(c);
  }

  std::fill(highBandwidth_.begin() + begin, highBandwidth_.begin() + end,
            false);
  if (known.empty()) return;
  std::sort(known.begin(), known.end(), [this](int a, int b) {
    const double ea = coreBwEffective_[static_cast<std::size_t>(a)];
    const double eb = coreBwEffective_[static_cast<std::size_t>(b)];
    if (ea != eb) return ea > eb;
    return a < b;
  });
  const std::size_t highCount = (known.size() + 1) / 2;
  for (std::size_t i = 0; i < highCount; ++i)
    highBandwidth_[static_cast<std::size_t>(known[i])] = true;
}

void Observer::computeUnfairness() {
  // CV of cumulative access rates across each process's live threads:
  // homogeneous data-parallel threads should accumulate service equally.
  accumulatePerProcess();

  // The signal is the *worst* process: one starving application is an
  // unfair system even when the others are uniform (a mean would dilute it
  // below theta_f).
  double worst = 0.0;
  for (const auto& [pid, stats] : perProcess_) {
    if (stats.count() < 2) continue;
    if (stats.mean() < config_.processRateFloor) continue;  // noise-dominated
    worst = std::max(worst, stats.coefficientOfVariation());
  }
  unfairness_ = worst;
}

void Observer::classifyWorkload() {
  const int total = memCount_ + compCount_;
  if (total == 0) {
    type_ = WorkloadType::Balanced;
    return;
  }
  const double tolerance = config_.balanceTolerance * total;
  const int diff = memCount_ - compCount_;
  if (std::abs(diff) <= tolerance)
    type_ = WorkloadType::Balanced;
  else
    type_ = diff < 0 ? WorkloadType::UnbalancedCompute
                     : WorkloadType::UnbalancedMemory;
}

void Observer::resetClosedLoopState() {
  for (ThreadState& state : states_) {
    state.rate.reset();
    state.hasRate = false;
    state.hasHold = false;
  }
  if (config_.symmetricMovingMean && !coreBwWindow_.empty()) {
    // Restart each window from the current effective estimate: the filter
    // forgets poisoned history without zeroing the capability map.
    for (std::size_t c = 0; c < coreBwWindow_.size(); ++c) {
      coreBwWindow_[c].reset();
      if (coreBwRaw_[c] > 0.0) coreBwWindow_[c].add(coreBwRaw_[c]);
    }
  }
  DIKE_COUNTER("core.observer.closed_loop_reset");
}

double Observer::coreBw(int coreId) const {
  return coreBwEffective_.at(static_cast<std::size_t>(coreId));
}

bool Observer::isHighBandwidthCore(int coreId) const {
  return highBandwidth_.at(static_cast<std::size_t>(coreId));
}

std::vector<int> Observer::idsWith(bool ThreadState::*present) const {
  std::vector<int> ids;
  for (std::size_t id = 0; id < slotById_.size(); ++id)
    if (slotById_[id] >= 0 &&
        states_[static_cast<std::size_t>(slotById_[id])].*present)
      ids.push_back(static_cast<int>(id));
  return ids;
}

template <class Ar>
Observer::ThreadState& Observer::claim(int threadId,
                                       bool ThreadState::*present) {
  ThreadState& st = stateOf(threadId);
  if constexpr (Ar::kLoading) {
    // A saved list names each thread at most once.
    if (st.*present)
      throw ckpt::CheckpointError{"observer checkpoint names thread " +
                                  std::to_string(threadId) +
                                  " twice in one list"};
    st.*present = true;
  }
  return st;
}

template <class Ar>
void Observer::fields(Ar& ar) {
  ar.section("observer", [&] {
    ar.io("observedQuanta", observedQuanta_);
    ar.io("heldSamples", heldSamples_);
    ar.io("discardedSamples", discardedSamples_);
    ar.io("unfairness", unfairness_);
    ar.io("workloadType", type_);
    ar.io("memCount", memCount_);
    ar.io("compCount", compCount_);
    ar.list("threadInfoCount", threads_, "info", [&](ThreadInfo& t) {
      ar.id("threadId", t.threadId);
      ar.io("processId", t.processId);
      ar.io("coreId", t.coreId);
      ar.io("accessRate", t.accessRate);
      ar.io("avgAccessRate", t.avgAccessRate);
      ar.io("cumAccessRate", t.cumAccessRate);
      ar.io("deficit", t.deficit);
      ar.io("llcMissRatio", t.llcMissRatio);
      ar.io("class", t.cls);
      ar.io("staleAge", t.staleAge);
    });

    // Per-thread state goes out as three lists in ascending thread id, each
    // naming only the threads whose field is present. A fresh observer has
    // no threads, so on load each list starts empty and claim() creates
    // the records it names.
    std::vector<int> ids = idsWith(&ThreadState::hasRate);
    ar.list("threadRateCount", ids, "rate", [&](int& id) {
      ar.id("threadId", id);
      ar.io("window", claim<Ar>(id, &ThreadState::hasRate).rate);
    });
    ids = idsWith(&ThreadState::hasHold);
    ar.list("holdCount", ids, "hold", [&](int& id) {
      ar.id("threadId", id);
      HeldSample& hold = claim<Ar>(id, &ThreadState::hasHold).hold;
      ar.io("accessRate", hold.accessRate);
      ar.io("llcMissRatio", hold.llcMissRatio);
      ar.io("age", hold.age);
    });
    std::vector<std::pair<int, Progress>> cum;
    for (const int id : idsWith(&ThreadState::hasCum))
      cum.emplace_back(id, stateOf(id).cum);
    ar.columns("cumThreadIds", cum,
               ckpt::col("cumAccesses", &Progress::accesses),
               ckpt::col("cumSeconds", &Progress::seconds));
    if constexpr (Ar::kLoading)
      for (const auto& [id, progress] : cum)
        claim<Ar>(id, &ThreadState::hasCum).cum = progress;

    ar.io("coreBwRaw", coreBwRaw_);
    ar.io("coreBwEffective", coreBwEffective_);
    ar.list(
        "coreBwWindowCount", coreBwWindow_, "coreBwWindow",
        [&](util::MovingMean& mm) { ckpt::fields(ar, mm); },
        util::MovingMean{config_.movingMeanWindow});
    ar.io("highBandwidth", highBandwidth_);
  });
  if constexpr (Ar::kLoading) {
    // The per-core scans index every per-core array up to coreBwRaw_'s size.
    const std::size_t cores = coreBwRaw_.size();
    const std::size_t windows = config_.symmetricMovingMean ? cores : 0;
    if (coreBwEffective_.size() != cores || highBandwidth_.size() != cores ||
        coreBwWindow_.size() != windows)
      throw ckpt::CheckpointError{
          "observer checkpoint: per-core arrays disagree in length"};
    // The order/index caches are never serialized (pure scratch); rebuild
    // them from the restored thread list so findThread and the sort-repair
    // path work from the first post-restore quantum — exactly as they would
    // have in the uninterrupted run.
    recordThreadOrder();
  }
}

DIKE_CKPT_FIELDS(Observer);

}  // namespace dike::core
