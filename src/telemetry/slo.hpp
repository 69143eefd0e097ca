// Fairness SLO monitor: online evaluation of "the system stays fair"
// targets while a run is in flight.
//
// The paper's claim is that Dike holds per-thread slowdown within a band;
// an operator expresses that as a service-level objective, e.g. "the
// windowed mean slowdown spread over any 100-quantum window stays <= 1.25".
// The monitor keeps a sliding window per monitored signal, flags the
// transition into (and out of) breach, counts breaches, mirrors its state
// into the telemetry registry (slo.* counters/gauges, visible on /metrics),
// and keeps every transition as a structured SloAlertRecord.
//
// Evaluation sites: the background aggregator feeds it from FairnessSpread
// ring events during a live run; the fault-soak harness calls observe()
// synchronously per quantum so breach-latency assertions are deterministic.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace dike::telemetry {

/// One SLO breach/recovery event. `signal` names the monitored series
/// ("fairness_spread", "prediction_abs_error").
struct SloAlertRecord {
  std::int64_t quantumIndex = 0;
  std::string signal;
  double windowedValue = 0.0;  ///< windowed mean that crossed the target
  double target = 0.0;
  bool entered = true;  ///< true = breach entered, false = recovered
};

/// Targets for one run. Disabled targets are NaN/0 and never evaluate.
struct SloConfig {
  bool enabled = false;
  /// Breach when the windowed mean fairness spread exceeds this. Must be
  /// >= 1 (a spread below 1 is impossible by construction).
  double maxFairnessSpread = 1.25;
  /// Breach when the windowed mean |prediction error| exceeds this; <= 0
  /// disables the prediction-error target.
  double maxPredictionAbsError = 0.0;
  /// Sliding-window length in quanta; the windowed mean is evaluated once
  /// the window has filled.
  int windowQuanta = 100;
  /// Observations ignored at the start of the run (placement warm-up).
  int warmupQuanta = 0;
};

/// Decode {"enabled": bool, "maxFairnessSpread": x, "maxPredictionAbsError":
/// x, "windowQuanta": n, "warmupQuanta": n}. Throws std::runtime_error
/// naming the offending field for out-of-range values (spread < 1,
/// non-positive window, negative warmup) or a non-object section.
[[nodiscard]] SloConfig parseSloConfig(const util::JsonValue& section);

/// Serialise (the --print-default-config schema surface).
[[nodiscard]] util::JsonValue toJson(const SloConfig& config);

class SloMonitor {
 public:
  explicit SloMonitor(SloConfig config = {});

  /// Feed one quantum's fairness spread (NaN observations are skipped but
  /// still advance the warmup). Thread-safe.
  void observeFairnessSpread(std::int64_t quantumIndex, double spread);
  /// Feed one scored prediction's |relative error|. Thread-safe.
  void observePredictionError(std::int64_t quantumIndex, double absError);

  [[nodiscard]] const SloConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

  /// Breach-entered transitions so far (all signals).
  [[nodiscard]] std::int64_t breaches() const;
  /// True while any signal's windowed mean is above target.
  [[nodiscard]] bool inBreach() const;
  /// Quantum index of the first breach, or -1 when none occurred.
  [[nodiscard]] std::int64_t firstBreachQuantum() const;
  /// Every breach/recovery transition, in observation order.
  [[nodiscard]] std::vector<SloAlertRecord> alerts() const;
  /// Current windowed mean fairness spread (0 until the window fills).
  [[nodiscard]] double windowedFairnessSpread() const;

 private:
  /// One monitored signal's sliding window + breach state machine.
  struct Window {
    std::string signal;
    double target = 0.0;
    std::vector<double> values;  ///< circular, size = windowQuanta
    std::size_t next = 0;
    std::int64_t observed = 0;  ///< non-NaN observations so far
    double sum = 0.0;
    bool inBreach = false;
  };

  /// Returns the alert to emit (entered/recovered), if any transition fired.
  void observe(Window& window, std::int64_t quantumIndex, double value);
  void publishRegistryState();

  SloConfig config_;
  mutable std::mutex mu_;
  Window spread_;
  Window predErr_;
  std::int64_t warmupSeen_ = 0;
  std::int64_t breaches_ = 0;
  std::int64_t firstBreachQuantum_ = -1;
  std::vector<SloAlertRecord> alerts_;
};

}  // namespace dike::telemetry
