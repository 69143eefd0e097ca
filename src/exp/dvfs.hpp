// Scripted DVFS: frequency changes applied at quantum boundaries while a
// scheduler runs — the "dynamic heterogeneity" scenario of Section III-A
// ("a core may become low-bandwidth due to contention, or a core might
// become high-bandwidth if other sources of contention clear up"; with
// DVFS, capability itself moves under the scheduler's feet).
#pragma once

#include <vector>

#include "exp/runner.hpp"
#include "sim/machine.hpp"

namespace dike::exp {

/// One scripted frequency change (whole socket, like acpi-cpufreq policies).
struct FrequencyChange {
  util::Tick atTick = 0;
  int socket = 0;
  double freqGhz = 1.0;
};

/// QuantumPolicy decorator applying due frequency changes before the real
/// scheduler's quantum handler (composable with ArrivalInjector).
class DvfsScript final : public sim::QuantumPolicy {
 public:
  DvfsScript(sim::QuantumPolicy& inner, std::vector<FrequencyChange> script);

  [[nodiscard]] util::Tick quantumTicks() const override;
  void onQuantum(sim::Machine& machine) override;
  [[nodiscard]] bool holdsRunOpen() const override {
    return inner_->holdsRunOpen();
  }

  [[nodiscard]] int applied() const noexcept { return applied_; }

 private:
  sim::QuantumPolicy* inner_;
  std::vector<FrequencyChange> script_;  // sorted by atTick
  int applied_ = 0;
};

/// A DVFS experiment: one Table-II workload on an initially *homogeneous*
/// machine (both sockets fast); the script then changes frequencies while
/// the scheduler runs.
struct DvfsRunSpec {
  int workloadId = 2;
  SchedulerKind kind = SchedulerKind::Cfs;
  std::vector<FrequencyChange> script;
  double scale = 0.5;
  std::uint64_t seed = 42;
  core::DikeParams params = core::defaultParams();
};

[[nodiscard]] RunMetrics runDvfsWorkload(const DvfsRunSpec& spec);

}  // namespace dike::exp
