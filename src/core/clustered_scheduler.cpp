#include "core/clustered_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "ckpt/fields.hpp"
#include "telemetry/live.hpp"
#include "telemetry/registry.hpp"
#include "util/task_pool.hpp"
#include "util/types.hpp"

namespace dike::core {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t nsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

}  // namespace

ClusteredDikeScheduler::ClusteredDikeScheduler(DikeConfig config)
    : DikeScheduler(config), configuredClusters_(config.cluster.clusters) {
  if (config.cluster.clusters < 0)
    throw std::invalid_argument{"cluster.clusters must be >= 0"};
  if (config.cluster.rebalanceQuanta <= 0)
    throw std::invalid_argument{"cluster.rebalanceQuanta must be > 0"};
  if (config.cluster.rebalanceThreshold <= 0.0)
    throw std::invalid_argument{"cluster.rebalanceThreshold must be > 0"};
  if (config.cluster.rebalanceStreak <= 0)
    throw std::invalid_argument{"cluster.rebalanceStreak must be > 0"};
  if (config.cluster.rebalanceBudget <= 0)
    throw std::invalid_argument{"cluster.rebalanceBudget must be > 0"};
  if (config.cluster.decideJobs < 0)
    throw std::invalid_argument{"cluster.decideJobs must be >= 0"};
}

void ClusteredDikeScheduler::setDecideJobs(int jobs) {
  if (jobs < 0) throw std::invalid_argument{"decideJobs must be >= 0"};
  config_.cluster.decideJobs = jobs;
}

int ClusteredDikeScheduler::effectiveDecideJobs() const {
  const int configured = config_.cluster.decideJobs;
  const int resolved = configured == 0 ? util::defaultJobs() : configured;
  // More workers than clusters would only idle; clusterCount_ is 0 before
  // the first quantum, so floor at 1.
  return std::min(resolved, std::max(clusterCount_, 1));
}

std::string_view ClusteredDikeScheduler::name() const {
  // Flat mode is the equivalence contract: same policy name (checkpoints
  // taken flat restore here and vice versa), same everything.
  return flatMode() ? DikeScheduler::name() : "dike-clustered";
}

const DikeScheduler& ClusteredDikeScheduler::instanceFor(int coreId) const {
  if (clusters_.empty()) return *this;
  return *clusters_[static_cast<std::size_t>(
      clusterOfCore_[static_cast<std::size_t>(coreId)])];
}

DikeConfig ClusteredDikeScheduler::clusterConfig() const {
  DikeConfig sub = configuration();
  // The sub-schedulers must not recurse into clustering, and per-cluster
  // adaptive quantum lengths would desynchronise the clusters from the one
  // machine-wide quantum cadence this object reports via quantumTicks() —
  // clustered mode therefore runs fixed parameters per cluster.
  sub.cluster = ClusterConfig{};
  sub.cluster.clusters = 0;
  sub.goal = AdaptationGoal::None;
  return sub;
}

void ClusteredDikeScheduler::resolveGeometry(int coreCount) {
  clusterCount_ = std::min(configuredClusters_, coreCount);
  clusterOfCore_.resize(static_cast<std::size_t>(coreCount));
  for (int c = 0; c < coreCount; ++c) {
    // Contiguous equal chunks in core-id order. Core ids are socket-major
    // (sim/topology numbers socket 0's cores first), so whenever K divides
    // the socket count every cluster is a whole group of sockets.
    clusterOfCore_[static_cast<std::size_t>(c)] = static_cast<int>(
        static_cast<std::int64_t>(c) * clusterCount_ / coreCount);
  }
  buildClusters();
}

void ClusteredDikeScheduler::buildClusters() {
  computeSpans();
  clusters_.clear();
  clusters_.reserve(static_cast<std::size_t>(clusterCount_));
  for (int k = 0; k < clusterCount_; ++k)
    clusters_.push_back(std::make_unique<DikeScheduler>(clusterConfig()));
  clusterSamples_.resize(static_cast<std::size_t>(clusterCount_));
}

void ClusteredDikeScheduler::computeSpans() {
  // clusterOfCore_ is one non-empty contiguous run per cluster (built that
  // way, and validated on restore), so a run's first core opens its span.
  clusterBegin_.assign(static_cast<std::size_t>(clusterCount_) + 1,
                       util::isize(clusterOfCore_));
  for (int c = util::isize(clusterOfCore_) - 1; c >= 0; --c)
    clusterBegin_[static_cast<std::size_t>(
        clusterOfCore_[static_cast<std::size_t>(c)])] = c;
}

void ClusteredDikeScheduler::scatterSample(const sched::SchedulerView& view) {
  const sim::QuantumSample& sample = view.sample();
  const std::size_t cores = sample.coreAchievedBw.size();
  for (int k = 0; k < clusterCount_; ++k) {
    sim::QuantumSample& s = clusterSamples_[static_cast<std::size_t>(k)];
    s.periodTicks = sample.periodTicks;
    s.threads.clear();
    // Full-size bandwidth vector, sized once: the cluster observer indexes
    // it by global core id but reads only its own span, so the foreign
    // entries keep the zeros they were sized with and each quantum copies
    // just the span — every core is written exactly once.
    if (s.coreAchievedBw.size() != cores) s.coreAchievedBw.assign(cores, 0.0);
    const int begin = clusterBegin_[static_cast<std::size_t>(k)];
    const int end = clusterBegin_[static_cast<std::size_t>(k) + 1];
    std::copy(sample.coreAchievedBw.begin() + begin,
              sample.coreAchievedBw.begin() + end,
              s.coreAchievedBw.begin() + begin);
  }
  for (const sim::ThreadSample& t : sample.threads) {
    // Rows without a core (finished threads) are invisible to every
    // observer regardless of routing; drop them instead of guessing.
    if (t.coreId < 0) continue;
    const int k = clusterOfCore_[static_cast<std::size_t>(t.coreId)];
    clusterSamples_[static_cast<std::size_t>(k)].threads.push_back(t);
  }
}

void ClusteredDikeScheduler::onQuantum(sched::SchedulerView& view) {
  if (flatMode()) {
    const auto start = Clock::now();
    DikeScheduler::onQuantum(view);
    lastDecideNs_ = nsSince(start);
    lastScatterNs_ = 0;
    return;
  }

  DIKE_SCOPE_TIMER("core.dike.clustered_quantum");
  if (clusters_.empty()) resolveGeometry(view.coreCount());
  // Spans index the sample and the view by global core id; a geometry
  // restored from another machine's checkpoint would read out of range.
  if (util::isize(clusterOfCore_) != view.coreCount() ||
      util::isize(view.sample().coreAchievedBw) != view.coreCount())
    throw std::runtime_error{
        "clustered scheduler: cluster geometry covers " +
        std::to_string(clusterOfCore_.size()) + " cores but the machine has " +
        std::to_string(view.coreCount())};

  const auto scatterStart = Clock::now();
  scatterSample(view);
  lastScatterNs_ = nsSince(scatterStart);

  const auto decideStart = Clock::now();

  // Child views and per-cluster wiring, rebuilt every quantum (the views
  // hold a pointer to this quantum's parent view).
  childViews_.clear();
  childViews_.reserve(static_cast<std::size_t>(clusterCount_));
  for (int k = 0; k < clusterCount_; ++k) {
    DikeScheduler& sub = *clusters_[static_cast<std::size_t>(k)];
    sub.setFaultsActiveHint(faultsActiveHint());
    sub.setDecisionTrace(decisionTrace());
    childViews_.emplace_back(view,
                             clusterSamples_[static_cast<std::size_t>(k)],
                             clusterBegin_[static_cast<std::size_t>(k)],
                             clusterBegin_[static_cast<std::size_t>(k) + 1]);
  }
  planNs_.assign(static_cast<std::size_t>(clusterCount_), 0);
  commitNs_.assign(static_cast<std::size_t>(clusterCount_), 0);

  // Plan phase: every cluster observes/predicts/selects over its own state
  // and a read-only view. The instances are independent by construction
  // (cluster-local samples, actuations never cross cluster lines, foreign
  // cores read as a sentinel), so the shared pool may run plans
  // concurrently — and decideJobs=1 runs the *same* plan-all-then-
  // commit-all sequence inline, which is what keeps every jobs value
  // byte-identical.
  const int jobs = effectiveDecideJobs();
  const auto planOne = [this](std::size_t k) {
    const auto start = Clock::now();
    clusters_[k]->planQuantum(childViews_[k]);
    planNs_[k] = nsSince(start);
  };
  if (jobs <= 1) {
    for (std::size_t k = 0; k < clusters_.size(); ++k) planOne(k);
  } else {
    util::TaskPool::shared().forEach(clusters_.size(), planOne, jobs);
  }

  // Commit phase: serial, ascending cluster order — actuations with their
  // hook / fault-injector feedback, decision-trace appends, counters. This
  // is the order the fully-serial pipeline actuated in, so traces, faults,
  // and checkpoints are unchanged.
  bool anyActed = false;
  std::int64_t maxClusterNs = 0;
  for (int k = 0; k < clusterCount_; ++k) {
    const std::size_t kk = static_cast<std::size_t>(k);
    const auto start = Clock::now();
    clusters_[kk]->commitQuantum(childViews_[kk]);
    commitNs_[kk] = nsSince(start);
    anyActed = anyActed || clusters_[kk]->lastQuantumStats().acted;
    maxClusterNs = std::max(maxClusterNs, planNs_[kk] + commitNs_[kk]);
  }

  const auto rebalanceStart = Clock::now();
  rebalance(view);
  // Modeled per-instance latency: as deployed each cluster instance runs on
  // its own socket, so the slowest plan+commit, plus the rebalancer, is the
  // quantum's decide latency regardless of how this process executed it.
  lastDecideNs_ = maxClusterNs + nsSince(rebalanceStart);

  refreshAggregates(anyActed);
  lastDecideWallNs_ = nsSince(decideStart);
  // One decide-latency record per quantum: the wall-clock critical path of
  // the (possibly parallel) decide step, which is what an online scheduler
  // would actually steal from the applications.
  if (telemetry::liveEnabled())
    telemetry::publish(telemetry::EventKind::DecideLatency,
                       static_cast<std::uint32_t>(quantumIndex_), view.now(),
                       static_cast<double>(lastDecideWallNs_));
  ++quantumIndex_;
  childViews_.clear();  // the parent view dies when this call returns
}

void ClusteredDikeScheduler::rebalance(sched::SchedulerView& view) {
  if (++quantaSinceRebalance_ < config_.cluster.rebalanceQuanta) return;

  // Cheap top-level signal: each cluster's own unfairness, already computed
  // by its observer this quantum — O(K) to inspect.
  int worst = -1, best = -1;
  double worstU = 0.0, bestU = 0.0;
  for (int k = 0; k < clusterCount_; ++k) {
    const Observer& obs =
        clusters_[static_cast<std::size_t>(k)]->observer();
    // Too early to judge imbalance. Return with the cadence counter still
    // accumulated (it only resets below, once every cluster is warm), so
    // the attempt retries next quantum instead of silently waiting out a
    // whole fresh cadence.
    if (!obs.ready()) return;
    const double u = obs.systemUnfairness();
    if (worst < 0 || u > worstU) worst = k, worstU = u;
    if (best < 0 || u < bestU) best = k, bestU = u;
  }
  quantaSinceRebalance_ = 0;
  if (worst < 0 || worst == best ||
      worstU - bestU <= config_.cluster.rebalanceThreshold) {
    imbalanceStreak_ = 0;
    return;
  }
  if (++imbalanceStreak_ < config_.cluster.rebalanceStreak) return;
  imbalanceStreak_ = 0;

  // Sustained imbalance: move whole threads from the worst cluster to the
  // best one. Most-starved donors first; land on a free core when the
  // recipient has one, otherwise swap against the recipient's most-surplus
  // thread. Everything goes through the *parent* view, so hooks fire and
  // the adapter's totals count these like any other actuation.
  const Observer& donor = clusters_[static_cast<std::size_t>(worst)]->observer();
  const Observer& recipient =
      clusters_[static_cast<std::size_t>(best)]->observer();

  std::vector<const ThreadInfo*> starved;
  for (const ThreadInfo& t : donor.threadsByAccessRate())
    if (t.deficit > 0.0) starved.push_back(&t);
  std::sort(starved.begin(), starved.end(),
            [](const ThreadInfo* a, const ThreadInfo* b) {
              if (a->deficit != b->deficit) return a->deficit > b->deficit;
              return a->threadId < b->threadId;
            });

  int moved = 0;
  // Resume point into the recipient's core span.
  int freeScan = clusterBegin_[static_cast<std::size_t>(best)];
  const int recipientEnd = clusterBegin_[static_cast<std::size_t>(best) + 1];
  std::size_t surplusIdx = 0;
  const std::vector<ThreadInfo>& recipientThreads =
      recipient.threadsByAccessRate();
  std::vector<const ThreadInfo*> surplus;
  for (const ThreadInfo& t : recipientThreads) surplus.push_back(&t);
  std::sort(surplus.begin(), surplus.end(),
            [](const ThreadInfo* a, const ThreadInfo* b) {
              if (a->deficit != b->deficit) return a->deficit < b->deficit;
              return a->threadId < b->threadId;
            });

  for (const ThreadInfo* t : starved) {
    if (moved >= config_.cluster.rebalanceBudget) break;
    // Free core in the recipient cluster?
    int dest = -1;
    for (; freeScan < recipientEnd; ++freeScan) {
      if (view.coreOccupant(freeScan) == -1) {
        dest = freeScan++;
        break;
      }
    }
    if (dest >= 0) {
      if (!view.migrateTo(t->threadId, dest)) continue;
    } else if (surplusIdx < surplus.size()) {
      const ThreadInfo* partner = surplus[surplusIdx++];
      if (!view.swap(t->threadId, partner->threadId)) continue;
    } else {
      break;  // recipient is full and has no partner left
    }
    ++moved;
    ++rebalanceMoves_;
    DIKE_COUNTER("core.dike.cluster_rebalance_move");
  }
}

void ClusteredDikeScheduler::refreshAggregates(bool anyActed) {
  // Keep every aggregate a DikeScheduler consumer reads (reports and the
  // quantum recorder see the base) meaningful:
  // counters sum across clusters; unfairness is the worst cluster (one
  // starving cluster is an unfair machine); the workload class follows the
  // worst cluster too, since that is the cluster the signal describes.
  QuantumDecisionStats agg;
  agg.quantumIndex = quantumIndex_;
  agg.acted = anyActed;
  agg.params = params_;
  double worstU = -1.0;
  std::int64_t swaps = 0;
  DecisionTotals totals;
  for (const auto& sub : clusters_) {
    const QuantumDecisionStats& s = sub->lastQuantumStats();
    agg.pairsConsidered += s.pairsConsidered;
    agg.pairsRejectedCooldown += s.pairsRejectedCooldown;
    agg.pairsRejectedProfit += s.pairsRejectedProfit;
    agg.swapsExecuted += s.swapsExecuted;
    agg.swapsFailed += s.swapsFailed;
    agg.migrationsFailed += s.migrationsFailed;
    agg.fallbackActive = agg.fallbackActive || s.fallbackActive;
    if (s.unfairness > worstU) {
      worstU = s.unfairness;
      agg.workloadType = s.workloadType;
    }
    const DecisionTotals& t = sub->decisionTotals();
    totals.actedQuanta = std::max(totals.actedQuanta, t.actedQuanta);
    totals.pairsConsidered += t.pairsConsidered;
    totals.rejectedCooldown += t.rejectedCooldown;
    totals.rejectedProfit += t.rejectedProfit;
    totals.swapsExecuted += t.swapsExecuted;
    totals.swapsFailed += t.swapsFailed;
    totals.migrationsFailed += t.migrationsFailed;
    totals.fallbackQuanta += t.fallbackQuanta;
    totals.fallbackEngagements += t.fallbackEngagements;
    totals.divergenceResets += t.divergenceResets;
    swaps += sub->totalSwaps();
  }
  agg.unfairness = std::max(worstU, 0.0);
  lastStats_ = agg;
  // Wall quanta, not the sum of per-cluster quanta (every cluster runs in
  // the same machine quantum); actedQuanta is the busiest cluster's count,
  // bounded by wall quanta by construction.
  totals.quanta = quantumIndex_ + 1;
  totals_ = totals;
  totalSwaps_ = swaps;
}

template <class Ar>
void ClusteredDikeScheduler::fields(Ar& ar) {
  // Flat mode writes exactly the base layout: a flat checkpoint and a
  // 1-cluster checkpoint are interchangeable (byte-identical).
  DikeScheduler::fields(ar);
  if (flatMode()) return;
  ar.section("clustered", [&] {
    ar.io("clusterCount", clusterCount_);
    ar.io("clusterOfCore", clusterOfCore_);
    ar.io("quantaSinceRebalance", quantaSinceRebalance_);
    ar.io("imbalanceStreak", imbalanceStreak_);
    ar.io("rebalanceMoves", rebalanceMoves_);
  });
  if constexpr (Ar::kLoading) {
    checkRestoredGeometry();
    buildClusters();
  }
  for (int k = 0; k < clusterCount_; ++k) {
    // Each instance's whole "scheduler" section, policy name included.
    sched::Scheduler& cluster = *clusters_[static_cast<std::size_t>(k)];
    ar.section("cluster" + std::to_string(k), [&] { ar.nested(cluster); });
  }
}

void ClusteredDikeScheduler::checkRestoredGeometry() const {
  if (clusterCount_ < 0 || (clusterCount_ == 0) != clusterOfCore_.empty())
    throw ckpt::CheckpointError{
        "clustered checkpoint: inconsistent cluster geometry"};
  // resolveGeometry only ever builds clusters 0..count-1 as ascending,
  // contiguous, non-empty runs of cores: the map starts at 0, steps by 0
  // or 1, and ends at count-1. Any other map is a corrupt file (and the
  // per-cluster core spans are exact only for this shape).
  for (std::size_t c = 0; c < clusterOfCore_.size(); ++c) {
    const int expected = c == 0 ? 0 : clusterOfCore_[c - 1];
    const int k = clusterOfCore_[c];
    if (k != expected && (c == 0 || k != expected + 1))
      throw ckpt::CheckpointError{
          "clustered checkpoint: clusterOfCore is not one contiguous run per "
          "cluster in ascending order"};
  }
  if (!clusterOfCore_.empty() && clusterOfCore_.back() != clusterCount_ - 1)
    throw ckpt::CheckpointError{
        "clustered checkpoint: clusterOfCore does not cover clusters 0.." +
        std::to_string(clusterCount_ - 1)};
}

void ClusteredDikeScheduler::saveExtraState(ckpt::BinWriter& w) const {
  ckpt::writeFields(w, *this);
}

void ClusteredDikeScheduler::loadExtraState(ckpt::BinReader& r) {
  // Restore into a scheduler built from the same configuration, keeping
  // this one's trace sink; the geometry and the per-cluster instances come
  // from the checkpoint.
  ClusteredDikeScheduler fresh{config_};
  fresh.decisionTrace_ = decisionTrace_;
  *this = ckpt::readFields(r, std::move(fresh));
}

}  // namespace dike::core
