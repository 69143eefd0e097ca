// Scheduler decision tracing: one record per quantum of *why* Dike's decide
// step did what it did — the candidate pairs the Selector ranked, what the
// Predictor estimated for each, which the Decider rejected (and why), which
// swaps and free-core migrations were executed, and the fairness signal
// before and after. Analysis can then answer questions such as "did the
// rotation equalise fast-core time" or "how often did the cooldown veto a
// profitable swap" without re-running the simulation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dike::telemetry {

/// What the Decider concluded about one candidate pair.
enum class SwapOutcome {
  Executed,
  RejectedCooldown,  ///< a partner was swapped too recently
  RejectedProfit,    ///< predicted total profit failed the gate
  BudgetExhausted,   ///< swapSize/2 swaps already executed this quantum
  FailedActuation,   ///< the migration itself failed; placement unchanged
};

[[nodiscard]] std::string_view toString(SwapOutcome outcome) noexcept;

/// One candidate <t_low, t_high> pair and its evaluation.
struct SwapDecisionRecord {
  int lowThread = -1;
  int highThread = -1;
  /// Ranking inputs: the moving-mean access rates the Selector sorted on.
  double lowRate = 0.0;
  double highRate = 0.0;
  /// Predictor outputs (Eqns 1-3).
  double predictedRateLow = 0.0;
  double predictedRateHigh = 0.0;
  double totalProfit = 0.0;
  SwapOutcome outcome = SwapOutcome::Executed;
};

/// One free-core migration decision (promotion into a free high-bandwidth
/// core, or demotion that opens one).
struct MigrationDecisionRecord {
  int threadId = -1;
  int toCore = -1;
  double predictedRate = 0.0;
  bool promotion = true;  ///< false = demotion to a free low-bandwidth core
};

/// One quantum's decide step.
struct DecisionRecord {
  std::int64_t tick = 0;
  std::int64_t quantumIndex = 0;
  /// Fairness signal when the decision was taken.
  double unfairness = 0.0;
  /// Fairness signal observed at the *next* quantum — the realised effect
  /// of this decision. NaN until that quantum arrives (or forever for the
  /// run's last record).
  double unfairnessNext = 0.0;
  bool acted = false;  ///< false when the fairness check short-circuited
  /// "fair" | "swapped" | "rotation-blocked" (acted but nothing executed).
  std::string rationale;
  std::string workloadClass;
  int quantaLengthMs = -1;
  int swapSize = -1;
  std::vector<SwapDecisionRecord> swaps;
  std::vector<MigrationDecisionRecord> migrations;
};

/// Bounded in-memory store for decision records (mirrors sim::TraceRecorder
/// semantics: drops beyond capacity, reports how many were dropped).
class DecisionTrace {
 public:
  explicit DecisionTrace(std::size_t capacity = 1 << 16);

  void record(DecisionRecord record);
  /// Back-fill the most recent record's `unfairnessNext` with the fairness
  /// signal observed one quantum later.
  void annotateLastUnfairnessNext(double unfairness) noexcept;
  void clear();

  [[nodiscard]] const std::vector<DecisionRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

 private:
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::vector<DecisionRecord> records_;
};

}  // namespace dike::telemetry
