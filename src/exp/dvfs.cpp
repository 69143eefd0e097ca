#include "exp/dvfs.hpp"

#include <algorithm>

#include "exp/replay.hpp"

namespace dike::exp {

DvfsScript::DvfsScript(sim::QuantumPolicy& inner,
                       std::vector<FrequencyChange> script)
    : inner_(&inner), script_(std::move(script)) {
  std::stable_sort(script_.begin(), script_.end(),
                   [](const FrequencyChange& a, const FrequencyChange& b) {
                     return a.atTick < b.atTick;
                   });
}

util::Tick DvfsScript::quantumTicks() const { return inner_->quantumTicks(); }

void DvfsScript::onQuantum(sim::Machine& machine) {
  while (applied_ < static_cast<int>(script_.size()) &&
         script_[static_cast<std::size_t>(applied_)].atTick <=
             machine.now()) {
    const FrequencyChange& change =
        script_[static_cast<std::size_t>(applied_)];
    machine.setSocketFrequency(change.socket, change.freqGhz);
    ++applied_;
  }
  inner_->onQuantum(machine);
}

RunMetrics runDvfsWorkload(const DvfsRunSpec& spec) {
  RunSpec run;
  run.workloadId = spec.workloadId;
  run.kind = spec.kind;
  run.params = spec.params;
  run.scale = spec.scale;
  run.seed = spec.seed;
  run.heterogeneous = false;
  RunAttachments attachments;
  attachments.frequencyScript = spec.script;
  RunSession session{std::move(run), std::move(attachments)};
  RunMetrics metrics = session.finish();
  metrics.workload += "+dvfs";
  return metrics;
}

}  // namespace dike::exp
