#include "telemetry/slo.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "telemetry/registry.hpp"

namespace dike::telemetry {
namespace {

// Loud lookups: a present-but-mistyped key is a config bug, not a default.
double loudNumberOr(const util::JsonValue& obj, const char* key,
                    double fallback) {
  const auto v = obj.get(key);
  if (!v.has_value()) return fallback;
  if (!v->isNumber()) {
    throw std::runtime_error(std::string{"slo."} + key + " must be a number");
  }
  return v->asNumber();
}

bool loudBoolOr(const util::JsonValue& obj, const char* key, bool fallback) {
  const auto v = obj.get(key);
  if (!v.has_value()) return fallback;
  if (!v->isBool()) {
    throw std::runtime_error(std::string{"slo."} + key + " must be a boolean");
  }
  return v->asBool();
}

int loudIntOr(const util::JsonValue& obj, const char* key, int fallback) {
  const double d = loudNumberOr(obj, key, static_cast<double>(fallback));
  const int i = static_cast<int>(d);
  if (static_cast<double>(i) != d) {
    throw std::runtime_error(std::string{"slo."} + key +
                             " must be an integer");
  }
  return i;
}

}  // namespace

SloConfig parseSloConfig(const util::JsonValue& section) {
  if (!section.isObject()) {
    throw std::runtime_error("config \"slo\" section must be an object");
  }
  SloConfig config;
  config.enabled = loudBoolOr(section, "enabled", config.enabled);
  config.maxFairnessSpread =
      loudNumberOr(section, "maxFairnessSpread", config.maxFairnessSpread);
  config.maxPredictionAbsError = loudNumberOr(
      section, "maxPredictionAbsError", config.maxPredictionAbsError);
  config.windowQuanta = loudIntOr(section, "windowQuanta", config.windowQuanta);
  config.warmupQuanta = loudIntOr(section, "warmupQuanta", config.warmupQuanta);
  if (!(config.maxFairnessSpread >= 1.0)) {
    throw std::runtime_error(
        "slo.maxFairnessSpread must be >= 1 (a slowdown spread below 1 is "
        "impossible)");
  }
  if (std::isnan(config.maxPredictionAbsError)) {
    throw std::runtime_error("slo.maxPredictionAbsError must not be NaN");
  }
  if (config.windowQuanta < 1) {
    throw std::runtime_error("slo.windowQuanta must be >= 1");
  }
  if (config.warmupQuanta < 0) {
    throw std::runtime_error("slo.warmupQuanta must be >= 0");
  }
  return config;
}

util::JsonValue toJson(const SloConfig& config) {
  util::JsonObject out;
  out.emplace("enabled", config.enabled);
  out.emplace("maxFairnessSpread", config.maxFairnessSpread);
  out.emplace("maxPredictionAbsError", config.maxPredictionAbsError);
  out.emplace("windowQuanta", config.windowQuanta);
  out.emplace("warmupQuanta", config.warmupQuanta);
  return util::JsonValue{std::move(out)};
}

SloMonitor::SloMonitor(SloConfig config) : config_(std::move(config)) {
  const auto window = static_cast<std::size_t>(
      config_.windowQuanta < 1 ? 1 : config_.windowQuanta);
  spread_.signal = "fairness_spread";
  spread_.target = config_.maxFairnessSpread;
  spread_.values.assign(window, 0.0);
  predErr_.signal = "prediction_abs_error";
  predErr_.target = config_.maxPredictionAbsError;
  predErr_.values.assign(window, 0.0);
}

void SloMonitor::observeFairnessSpread(std::int64_t quantumIndex,
                                       double spread) {
  if (!config_.enabled) return;
  const std::lock_guard lock{mu_};
  if (warmupSeen_ < config_.warmupQuanta) {
    ++warmupSeen_;
    return;
  }
  observe(spread_, quantumIndex, spread);
}

void SloMonitor::observePredictionError(std::int64_t quantumIndex,
                                        double absError) {
  if (!config_.enabled || !(config_.maxPredictionAbsError > 0.0)) return;
  const std::lock_guard lock{mu_};
  if (warmupSeen_ < config_.warmupQuanta) return;  // spread drives warmup
  observe(predErr_, quantumIndex, std::fabs(absError));
}

void SloMonitor::observe(Window& window, std::int64_t quantumIndex,
                         double value) {
  if (std::isnan(value)) return;
  const auto size = window.values.size();
  if (window.observed >= static_cast<std::int64_t>(size)) {
    window.sum -= window.values[window.next];
  }
  window.values[window.next] = value;
  window.next = (window.next + 1) % size;
  ++window.observed;
  window.sum += value;
  if (window.observed < static_cast<std::int64_t>(size)) return;
  const double mean = window.sum / static_cast<double>(size);
  const bool breach = mean > window.target;
  if (breach == window.inBreach) return;
  window.inBreach = breach;
  SloAlertRecord alert;
  alert.quantumIndex = quantumIndex;
  alert.signal = window.signal;
  alert.windowedValue = mean;
  alert.target = window.target;
  alert.entered = breach;
  if (breach) {
    ++breaches_;
    if (firstBreachQuantum_ < 0) firstBreachQuantum_ = quantumIndex;
  }
  alerts_.push_back(alert);
  publishRegistryState();
}

void SloMonitor::publishRegistryState() {
  // Mirror into the registry directly (not via the DIKE_* macros, whose
  // function-local statics would be shared across monitor instances). Only
  // breach *transitions* reach here, so the counter advances by one per
  // entered alert.
  auto& registry = Registry::instance();
  if ((spread_.inBreach || predErr_.inBreach) &&
      !alerts_.empty() && alerts_.back().entered) {
    registry.counter("slo.breaches").add(1);
  }
  registry.gauge("slo.in_breach")
      .set((spread_.inBreach || predErr_.inBreach) ? 1.0 : 0.0);
}

std::int64_t SloMonitor::breaches() const {
  const std::lock_guard lock{mu_};
  return breaches_;
}

bool SloMonitor::inBreach() const {
  const std::lock_guard lock{mu_};
  return spread_.inBreach || predErr_.inBreach;
}

std::int64_t SloMonitor::firstBreachQuantum() const {
  const std::lock_guard lock{mu_};
  return firstBreachQuantum_;
}

std::vector<SloAlertRecord> SloMonitor::alerts() const {
  const std::lock_guard lock{mu_};
  return alerts_;
}

double SloMonitor::windowedFairnessSpread() const {
  const std::lock_guard lock{mu_};
  if (spread_.observed < static_cast<std::int64_t>(spread_.values.size())) {
    return 0.0;
  }
  return spread_.sum / static_cast<double>(spread_.values.size());
}

}  // namespace dike::telemetry
