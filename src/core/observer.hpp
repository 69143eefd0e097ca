// Observer: thread classification and core identification (Section III-A).
//
// Per quantum the Observer reads each thread's memory access rate and LLC
// miss ratio from the counter sample, classifies threads as memory- or
// compute-intensive, maintains the per-core CoreBW bandwidth estimate, and
// partitions cores into higher- and lower-bandwidth halves. It also
// computes the current system fairness signal and the online workload-class
// estimate the Optimizer keys on.
#pragma once

#include <limits>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "sched/scheduler.hpp"
#include "util/stats.hpp"

namespace dike::core {

/// One quantum's raw observations, backend-independent: the simulator's
/// SchedulerView produces one per quantum, and the Linux host driver builds
/// the same struct from /proc + perf counters — so the entire Dike pipeline
/// is reusable on live systems.
struct Observation {
  sim::QuantumSample sample;
  /// Thread id per core, -1 when free, SchedulerView::kForeignCore outside
  /// [coreBegin, coreEnd).
  std::vector<int> coreOccupant;
  std::vector<int> coreSocket;    ///< socket id per core
  /// The core span the Observer scans: a cluster's own cores, or (the
  /// default) every core. The per-core vectors stay machine-sized and are
  /// indexed by global core id; entries outside the span carry no signal.
  int coreBegin = 0;
  int coreEnd = std::numeric_limits<int>::max();
};

/// Refill `out` from a simulator scheduler view, in place: its vectors (and
/// the sample's per-thread rows) keep their capacity across quanta, and
/// only the view's core span is copied — foreign slots are prefilled once.
void makeObservationInto(const sched::SchedulerView& view, Observation& out);

enum class ThreadClass { Compute, Memory };

/// Online estimate of the workload mix (Section III-F). This mirrors the
/// evaluation's B/UC/UM taxonomy but is inferred from counters, never from
/// ground truth.
enum class WorkloadType { Balanced, UnbalancedCompute, UnbalancedMemory };

[[nodiscard]] std::string_view toString(WorkloadType type) noexcept;

/// Observer's view of one live thread this quantum.
struct ThreadInfo {
  int threadId = -1;
  int processId = -1;
  int coreId = -1;
  double accessRate = 0.0;     ///< accesses per second, last quantum
  double avgAccessRate = 0.0;  ///< moving mean over threadRateWindow quanta
  double cumAccessRate = 0.0;  ///< accesses per second over the whole run
  /// Relative starvation versus the process mean cumulative rate:
  /// positive = this thread has been served less than its siblings,
  /// negative = more. Homogeneous threads with equal deficits will have
  /// equal completion times — deficit is the live analogue of Eqn 4.
  double deficit = 0.0;
  double llcMissRatio = 0.0;   ///< misses / accesses, last quantum
  ThreadClass cls = ThreadClass::Compute;
  /// Quanta since the thread's last trustworthy counter reading. 0 = this
  /// quantum's sample was good; N > 0 = the rate/miss-ratio fields above are
  /// a last-known-good hold that is N quanta stale (sample sanitization).
  int staleAge = 0;
};

class Observer {
 public:
  explicit Observer(ObserverConfig config = {});

  /// Ingest one quantum's counter sample.
  void observe(const Observation& obs);

  /// True once at least one quantum has been observed.
  [[nodiscard]] bool ready() const noexcept { return observedQuanta_ > 0; }
  [[nodiscard]] std::int64_t observedQuanta() const noexcept {
    return observedQuanta_;
  }

  /// Live threads observed in the most recent quantum, sorted by ascending
  /// access rate (the order the Selector consumes).
  [[nodiscard]] const std::vector<ThreadInfo>& threadsByAccessRate()
      const noexcept {
    return threads_;
  }

  /// O(1) lookup into threadsByAccessRate() by thread id, or nullptr when
  /// the thread was not observed in the most recent quantum. The pointer is
  /// invalidated by the next observe() call or restore.
  [[nodiscard]] const ThreadInfo* findThread(int threadId) const noexcept;

  /// CoreBW: the capability estimate for a core (accesses/second).
  [[nodiscard]] double coreBw(int coreId) const;

  /// Core identification: true if the core is in the higher-bandwidth half
  /// of currently occupied cores.
  [[nodiscard]] bool isHighBandwidthCore(int coreId) const;

  /// Fairness signal: the worst, over processes with at least two live
  /// threads (and a mean access rate above processRateFloor), coefficient
  /// of variation of their threads' cumulative access rates. Zero when
  /// every such group is uniform (fair). Homogeneous (data-parallel)
  /// threads should accumulate service at equal rates — and access rate
  /// tracks progress on heterogeneous cores where IPC misleads (Section
  /// III-A) — so divergence means some threads are being starved and will
  /// finish late (exactly what Eqn 4 penalises).
  [[nodiscard]] double systemUnfairness() const noexcept {
    return unfairness_;
  }

  [[nodiscard]] WorkloadType workloadType() const noexcept { return type_; }
  [[nodiscard]] int memoryThreadCount() const noexcept { return memCount_; }
  [[nodiscard]] int computeThreadCount() const noexcept { return compCount_; }

  [[nodiscard]] const ObserverConfig& config() const noexcept {
    return config_;
  }

  /// Samples replaced by a last-known-good hold so far (sanitization).
  [[nodiscard]] std::int64_t heldSamples() const noexcept {
    return heldSamples_;
  }
  /// Samples discarded because no hold was available (or it went stale).
  [[nodiscard]] std::int64_t discardedSamples() const noexcept {
    return discardedSamples_;
  }

  /// Divergence-watchdog recovery: drop every closed-loop estimate that a
  /// corrupt counter feed can poison — per-thread rate windows, CoreBW
  /// filters (current effective values are kept as the restart point so the
  /// core partition does not collapse), and the last-known-good holds.
  /// Whole-run progress accounting (cumulative accesses/seconds, the
  /// fairness signal's input) is deliberately preserved.
  void resetClosedLoopState();

 private:
  friend struct ckpt::Access;
  /// The checkpointed state (ckpt/fields.hpp): every mutable estimate — the
  /// closed-loop filters, sanitization holds, cumulative progress
  /// accounting, and the core partition. The moving-window filters carry
  /// their raw running sums (path dependent), so restore is bit-exact. A
  /// load expects a freshly built observer.
  template <class Ar>
  void fields(Ar& ar);

  void updateCoreBw(const Observation& obs);
  void classifyThreads(const sim::QuantumSample& sample);
  void partitionCores(const Observation& obs);
  void computeUnfairness();
  void classifyWorkload();
  /// Accumulate per-process OnlineStats of cumAccessRate over threads_ in
  /// its current iteration order, into the reusable flat scratch.
  void accumulatePerProcess();
  /// Point threadIndexById_ at every entry of threads_ (growing it as
  /// needed); entries for other ids are left as they are.
  void indexThreads();
  /// Rebuild prevOrder_ and threadIndexById_ from the (sorted) threads_.
  void recordThreadOrder();

  ObserverConfig config_;
  std::int64_t observedQuanta_ = 0;

  /// Last trustworthy reading per thread, for the sanitization hold.
  struct HeldSample {
    double accessRate = 0.0;
    double llcMissRatio = 0.0;
    int age = 0;  ///< quanta since the reading was taken
  };
  /// Whole-run progress accounting: the fairness signal's input.
  struct Progress {
    double accesses = 0.0;
    double seconds = 0.0;
  };
  /// Everything remembered about one thread across quanta. Each field has
  /// a presence bit: a record exists for every thread ever sampled, but a
  /// field counts (and is checkpointed) only once it has been set, so the
  /// saved rate, hold and cumulative lists name exactly the threads that
  /// carry that state.
  struct ThreadState {
    explicit ThreadState(std::size_t rateWindow) : rate(rateWindow) {}
    util::MovingMean rate;  ///< avg access rate window
    HeldSample hold;        ///< sanitization hold
    Progress cum;
    bool hasRate = false;
    bool hasHold = false;
    bool hasCum = false;
  };
  /// The thread's record, created on first use (one dense-index lookup).
  [[nodiscard]] ThreadState& stateOf(int threadId);
  /// Ascending ids of the threads whose `present` field is set.
  [[nodiscard]] std::vector<int> idsWith(bool ThreadState::*present) const;
  /// The record a checkpoint list names: on load, created and marked
  /// `present`, refusing a thread the list already named.
  template <class Ar>
  ThreadState& claim(int threadId, bool ThreadState::*present);
  /// Sanitize one raw sample into the out-parameters; false to skip the
  /// thread this quantum.
  [[nodiscard]] bool sanitize(const sim::ThreadSample& raw, ThreadState& state,
                              double& accessRate, double& llcMissRatio,
                              int& staleAge);
  /// Clamp an observation's core span to the per-core arrays.
  [[nodiscard]] std::pair<int, int> scanSpan(const Observation& obs) const;

  std::vector<ThreadInfo> threads_;       // live, ascending avg access rate
  std::vector<ThreadState> states_;       // per-thread records, first-seen order
  std::vector<int> slotById_;             // dense threadId -> states_ index, -1 = none
  std::int64_t heldSamples_ = 0;
  std::int64_t discardedSamples_ = 0;
  std::vector<double> coreBwRaw_;         // per-core filtered estimate
  std::vector<double> coreBwEffective_;   // after socket blending
  std::vector<util::MovingMean> coreBwWindow_;  // symmetric variant storage
  std::vector<bool> highBandwidth_;
  double unfairness_ = 0.0;
  WorkloadType type_ = WorkloadType::Balanced;
  int memCount_ = 0;
  int compCount_ = 0;

  // --- Reusable per-quantum scratch (never serialized; pure caches). ---
  /// (processId, stats) pairs, first-encounter order. A flat vector beats a
  /// node-based map here: a handful of processes, scanned linearly, zero
  /// steady-state allocation. Accumulation order per process is unchanged
  /// from the historical std::map version (encounter order), and the
  /// unfairness reduction is a max — order-independent — so the fairness
  /// signal stays bit-identical.
  std::vector<std::pair<int, util::OnlineStats>> perProcess_;
  /// Thread ids in the previous quantum's sorted order. When the live set
  /// is unchanged, threads_ is permuted into this order and repaired with
  /// an adaptive insertion sort instead of a full re-sort; the comparator
  /// (avgAccessRate, threadId) is a strict total order, so every sorting
  /// algorithm produces the one and only sorted sequence — the repair path
  /// is bit-identical to the full sort by construction.
  std::vector<int> prevOrder_;
  std::vector<ThreadInfo> orderScratch_;  ///< permutation staging buffer
  /// Dense threadId -> index into threads_ (-1 when absent); backs
  /// findThread and the membership check of the sort-repair path. Sized
  /// by the largest id seen, but each quantum touches only live entries.
  std::vector<int> threadIndexById_;
  std::vector<double> socketCapScratch_;  ///< updateCoreBw per-socket maxima
  std::vector<int> knownScratch_;         ///< partitionCores ranking buffer
};

}  // namespace dike::core
