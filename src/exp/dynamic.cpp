#include "exp/dynamic.hpp"

#include <algorithm>

#include "exp/replay.hpp"
#include "workload/benchmarks.hpp"

namespace dike::exp {

namespace {

/// Add an arrival's process to the machine, unplaced; returns its id.
int admit(sim::Machine& machine, const Arrival& arrival) {
  const wl::BenchmarkSpec bench =
      wl::makeBenchmark(arrival.benchmark, arrival.scale);
  return machine.addProcess(bench.name, bench.program, arrival.threads,
                            bench.memoryIntensive);
}

/// Short-lived churn processes alternate a memory-bound and a compute-bound
/// model so arrivals perturb both halves of the machine.
constexpr const char* kChurnBenchmarks[2] = {"stream_omp", "srad"};

}  // namespace

ArrivalInjector::ArrivalInjector(sim::QuantumPolicy& inner,
                                 std::vector<Arrival> schedule,
                                 bool holdsRunOpen)
    : inner_(&inner),
      schedule_(std::move(schedule)),
      holdsRunOpen_(holdsRunOpen) {
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.atTick < b.atTick;
                   });
}

util::Tick ArrivalInjector::quantumTicks() const {
  return inner_->quantumTicks();
}

bool ArrivalInjector::holdsRunOpen() const {
  return (holdsRunOpen_ && pendingArrivals() > 0) || inner_->holdsRunOpen();
}

void ArrivalInjector::onQuantum(sim::Machine& machine) {
  while (injected_ < static_cast<int>(schedule_.size())) {
    const Arrival& next = schedule_[static_cast<std::size_t>(injected_)];
    if (next.atTick > machine.now()) break;

    // First-fit onto free cores, like OS wakeup placement. If the arrival
    // does not fit, defer it (and everything behind it) to a later quantum.
    std::vector<int> freeCores;
    for (int c = 0; c < machine.topology().coreCount(); ++c)
      if (machine.coreOccupant(c) == -1) freeCores.push_back(c);
    if (static_cast<int>(freeCores.size()) < next.threads) break;

    const auto& threadIds = machine.process(admit(machine, next)).threadIds;
    for (std::size_t i = 0; i < threadIds.size(); ++i)
      machine.placeThread(threadIds[i], freeCores[i]);
    ++injected_;
  }
  inner_->onQuantum(machine);
}

void ArrivalInjector::readmit(sim::Machine& machine, int count) {
  for (; injected_ < count; ++injected_)
    (void)admit(machine, schedule_[static_cast<std::size_t>(injected_)]);
}

std::vector<Arrival> churnArrivals(const fault::FaultPlan& plan,
                                   util::Rng rng, util::Tick quantumTicks) {
  std::vector<Arrival> schedule;
  if (plan.churn.arrivals <= 0) return schedule;
  const util::Tick start = plan.window.startTick;
  const util::Tick end = plan.window.endTick > 0
                             ? plan.window.endTick
                             : start + 200 * std::max<util::Tick>(
                                                 1, quantumTicks);
  for (int i = 0; i < plan.churn.arrivals; ++i) {
    Arrival a;
    a.atTick = start + static_cast<util::Tick>(
                           rng.uniform() *
                           static_cast<double>(std::max<util::Tick>(
                               1, end - start)));
    a.benchmark = kChurnBenchmarks[i % 2];
    a.threads = plan.churn.threadsPerArrival;
    a.scale = plan.churn.arrivalScale;
    schedule.push_back(std::move(a));
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.atTick < b.atTick;
            });
  return schedule;
}

RunMetrics runDynamicWorkload(const DynamicRunSpec& spec) {
  RunSpec run;
  run.workloadId = spec.workloadId;
  run.kind = spec.kind;
  run.params = spec.params;
  run.scale = spec.scale;
  run.seed = spec.seed;
  RunAttachments attachments;
  attachments.arrivals = spec.arrivals;
  RunSession session{std::move(run), std::move(attachments)};
  RunMetrics metrics = session.finish();
  metrics.workload += "+dynamic";
  return metrics;
}

}  // namespace dike::exp
