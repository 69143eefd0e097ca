// Open-system (dynamic) workloads: applications arriving while the machine
// runs — the situation the paper's adaptation explicitly targets ("the
// optimal configuration may change as ... new applications enter the
// system, or old applications exit", Section II).
//
// Arrivals are injected at quantum boundaries (an OS notices new runnable
// threads at scheduling-tick granularity) and placed on free cores
// first-fit, like wakeup balancing would. Arrivals that do not fit are
// deferred to the next boundary with free capacity.
#pragma once

#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace dike::exp {

/// One scheduled arrival.
struct Arrival {
  util::Tick atTick = 0;
  std::string benchmark;  ///< a workload/benchmarks.hpp model name
  int threads = 8;
  double scale = 1.0;
};

/// QuantumPolicy decorator that injects arrivals before delegating to the
/// real scheduler's quantum handler.
class ArrivalInjector final : public sim::QuantumPolicy {
 public:
  /// `holdsRunOpen` makes the run wait for every arrival (an open-system
  /// schedule); without it the run ends with the resident work and the
  /// arrivals still pending are simply reported (fault-plan churn).
  ArrivalInjector(sim::QuantumPolicy& inner, std::vector<Arrival> schedule,
                  bool holdsRunOpen = true);

  [[nodiscard]] util::Tick quantumTicks() const override;
  void onQuantum(sim::Machine& machine) override;
  [[nodiscard]] bool holdsRunOpen() const override;

  /// Re-add the processes of the first `count` arrivals, unplaced, to a
  /// freshly built machine: a checkpoint restore then overwrites their
  /// state and placement. Requires 0 <= count <= pendingArrivals().
  void readmit(sim::Machine& machine, int count);

  /// Arrivals still waiting (due but no free cores, or not yet due).
  [[nodiscard]] int pendingArrivals() const noexcept {
    return static_cast<int>(schedule_.size()) - injected_;
  }
  [[nodiscard]] int injectedArrivals() const noexcept { return injected_; }

 private:
  sim::QuantumPolicy* inner_;
  std::vector<Arrival> schedule_;  // sorted by atTick
  bool holdsRunOpen_;
  int injected_ = 0;
};

/// The arrival schedule a fault plan's churn describes: `plan.churn.arrivals`
/// short-lived processes at ticks drawn from `rng` inside the plan's window
/// (200 quanta from its start when the window is open-ended).
[[nodiscard]] std::vector<Arrival> churnArrivals(const fault::FaultPlan& plan,
                                                 util::Rng rng,
                                                 util::Tick quantumTicks);

/// A dynamic-workload experiment: a Table-II base workload plus arrivals.
struct DynamicRunSpec {
  int workloadId = 2;
  SchedulerKind kind = SchedulerKind::Cfs;
  std::vector<Arrival> arrivals;
  double scale = 0.5;
  std::uint64_t seed = 42;
  core::DikeParams params = core::defaultParams();
};

/// Run it; RunMetrics::processes includes the arrived applications.
[[nodiscard]] RunMetrics runDynamicWorkload(const DynamicRunSpec& spec);

}  // namespace dike::exp
