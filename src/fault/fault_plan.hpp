// Fault plans: the declarative description of what goes wrong, when.
//
// A FaultPlan is a seeded, fully deterministic schedule of sensor and
// actuator faults. It never touches the machine itself — the FaultInjector
// (counter + actuation seams), FaultInjectionPolicy (core faults) and the
// run's arrival injector (churn) interpret it. Two runs with the same plan and workload are byte-identical;
// a default-constructed plan injects nothing, so wiring the fault layer into
// a run with an empty plan leaves every golden output unchanged.
#pragma once

#include <cstdint>

#include "util/json.hpp"
#include "util/types.hpp"

namespace dike::fault {

/// Half-open tick interval during which injection is armed. `endTick == 0`
/// means "until the run ends". Outside the window the injector consumes no
/// randomness at all, so the fault-free prefix/suffix of a run is identical
/// to a run with no plan attached.
struct FaultWindow {
  util::Tick startTick = 0;
  util::Tick endTick = 0;

  [[nodiscard]] bool contains(util::Tick t) const noexcept {
    return t >= startTick && (endTick == 0 || t < endTick);
  }
};

/// Counter-path faults, applied per thread per quantum.
struct SampleFaults {
  /// Lose the reading entirely (ThreadSample::dropped is set; numeric
  /// fields are zeroed, as a failed perf read leaves them).
  double dropProbability = 0.0;
  /// Multiply accesses/rate/instructions by a uniform draw from
  /// [corruptScaleMin, corruptScaleMax] — a miscounting counter.
  double corruptProbability = 0.0;
  double corruptScaleMin = 0.25;
  double corruptScaleMax = 4.0;
  /// Begin a stuck-at-zero episode: the thread's counters read zero for
  /// stuckQuanta consecutive quanta (a wedged PMU).
  double stuckAtZeroProbability = 0.0;
  int stuckQuanta = 4;
  /// Saturate the LLC miss ratio to 1.0 (forces misclassification).
  double saturateMissRatioProbability = 0.0;
};

/// Actuation-path faults, applied per attempt.
struct ActuationFaults {
  double swapFailProbability = 0.0;
  double migrationFailProbability = 0.0;
};

/// Machine-side faults, applied per physical core per quantum.
struct CoreFaults {
  /// Begin a transient frequency dip: the physical core runs at
  /// freqDipFactor of its current frequency for dipQuanta quanta, then the
  /// saved frequency is restored (a thermal throttle / firmware stall).
  double freqDipProbability = 0.0;
  double freqDipFactor = 0.5;
  int dipQuanta = 2;
};

/// Mid-run thread churn. The fault library only carries the parameters;
/// every run (exp::RunSession) turns them into an exp::ArrivalInjector
/// schedule drawn from a fork of the injector's RNG stream, keeping this
/// library free of workload-table dependencies. The run ends with its
/// resident work; arrivals still pending then are reported, not awaited.
struct ChurnFaults {
  int arrivals = 0;           ///< extra short-lived processes to launch
  int threadsPerArrival = 2;  ///< threads per churn process
  double arrivalScale = 0.05; ///< workload scale (short => exits model churn)
};

struct FaultPlan {
  std::uint64_t seed = 1;
  FaultWindow window{};
  SampleFaults samples{};
  ActuationFaults actuation{};
  CoreFaults cores{};
  ChurnFaults churn{};

  /// True when the plan can inject anything at all.
  [[nodiscard]] bool enabled() const noexcept;
};

/// Decode a plan from its JSON object form (the `faults` config section).
/// Unknown keys are ignored; missing keys keep their defaults. Throws
/// std::runtime_error on out-of-range values.
[[nodiscard]] FaultPlan parseFaultPlan(const util::JsonValue& document);

/// Encode a plan as the JSON object parseFaultPlan accepts (round-trips).
[[nodiscard]] util::JsonValue toJson(const FaultPlan& plan);

/// The plan's JSON field list (ckpt/json_fields.hpp), for documents that
/// embed a plan; instantiated for ckpt::JsonWriter and ckpt::JsonReader.
template <class Ar>
void fields(Ar& ar, FaultPlan& plan);

}  // namespace dike::fault
