// Resilience soak harness: one faulted run under continuous invariant
// checking, paired with its fault-free twin for recovery comparison.
//
// The soak is the fault framework's acceptance gate. It drives a workload
// through a fault window (counter corruption, failed actuations, frequency
// dips, thread churn) while a per-quantum checker asserts the invariants
// that must hold no matter what is injected:
//   * no NaN/negative value ever escapes the counter path into a sample,
//   * the placement stays consistent — every live sampled thread occupies
//     exactly one core (failed migrations must never strand a thread),
//   * Dike's fairness signal stays finite.
// After both runs it checks that end-to-end fairness recovered to within
// 10% of the fault-free twin. Reports serialise deterministically, so two
// soaks with the same spec are byte-identical — the determinism gate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "fault/fault_plan.hpp"
#include "telemetry/slo.hpp"
#include "util/json.hpp"

namespace dike::exp {

struct SoakSpec {
  /// Benchmarks forming the base (closed) workload; each runs
  /// `threadsPerApp` threads. The default pair gives the 16 resident
  /// threads of the acceptance soak.
  std::vector<std::string> apps{"jacobi", "hotspot"};
  int threadsPerApp = 8;
  SchedulerKind kind = SchedulerKind::DikeAF;
  double scale = 0.3;
  std::uint64_t seed = 7;
  bool heterogeneous = true;
  core::DikeParams params = core::defaultParams();
  std::optional<core::DikeConfig> dikeConfig;
  /// What to inject. Churn arrivals are scheduled inside the plan's window
  /// from the plan's forked RNG stream.
  fault::FaultPlan faults{};
  /// Fairness SLO evaluated synchronously per quantum on BOTH runs. With
  /// faults injected the monitor is expected to flag a breach shortly after
  /// fault onset while the fault-free twin stays clean — the detection-
  /// latency property the soak asserts.
  telemetry::SloConfig slo{};
};

/// A standard acceptance plan: counter corruption + drops, failing
/// migrations/swaps, core frequency dips, and `churnArrivals` short-lived
/// processes, all inside [startTick, endTick).
[[nodiscard]] fault::FaultPlan defaultSoakPlan(util::Tick startTick,
                                               util::Tick endTick,
                                               int churnArrivals = 4,
                                               std::uint64_t seed = 7);

struct SoakReport {
  RunMetrics metrics;             ///< the faulted run
  double baselineFairness = 0.0;  ///< fault-free twin, Eqn 4
  double fairnessRatio = 0.0;     ///< faulted / baseline
  bool fairnessRecovered = false; ///< ratio >= 0.9 (within 10%)
  std::int64_t quantaChecked = 0;
  std::int64_t nanViolations = 0;
  std::int64_t placementViolations = 0;
  int churnArrivalsInjected = 0;
  int churnArrivalsPending = 0;
  /// SLO monitor results (all zero / -1 when spec.slo is disabled).
  std::int64_t sloBreaches = 0;           ///< faulted run
  std::int64_t sloFirstBreachQuantum = -1;  ///< faulted run; -1 = never
  std::int64_t sloBaselineBreaches = 0;   ///< fault-free twin (should be 0)

  [[nodiscard]] bool passed() const noexcept {
    return nanViolations == 0 && placementViolations == 0 &&
           fairnessRecovered && !metrics.timedOut;
  }
};

/// Run the faulted soak and its fault-free twin; check every invariant.
[[nodiscard]] SoakReport runSoak(const SoakSpec& spec);

/// Deterministic serialisation (object keys sorted, counts and verdicts
/// included) — the byte-identity surface for repeated soaks.
[[nodiscard]] util::JsonValue toJson(const SoakReport& report);

}  // namespace dike::exp
