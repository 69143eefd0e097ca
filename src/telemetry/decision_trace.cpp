#include "telemetry/decision_trace.hpp"

namespace dike::telemetry {

std::string_view toString(SwapOutcome outcome) noexcept {
  switch (outcome) {
    case SwapOutcome::Executed: return "executed";
    case SwapOutcome::RejectedCooldown: return "rejected-cooldown";
    case SwapOutcome::RejectedProfit: return "rejected-profit";
    case SwapOutcome::BudgetExhausted: return "budget-exhausted";
    case SwapOutcome::FailedActuation: return "failed-actuation";
  }
  return "?";
}

DecisionTrace::DecisionTrace(std::size_t capacity) : capacity_(capacity) {}

void DecisionTrace::record(DecisionRecord record) {
  if (records_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  records_.push_back(std::move(record));
}

void DecisionTrace::annotateLastUnfairnessNext(double unfairness) noexcept {
  if (!records_.empty()) records_.back().unfairnessNext = unfairness;
}

void DecisionTrace::clear() {
  records_.clear();
  dropped_ = 0;
}

}  // namespace dike::telemetry
