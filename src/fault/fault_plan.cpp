#include "fault/fault_plan.hpp"

#include <stdexcept>
#include <string>

#include "ckpt/json_fields.hpp"

namespace dike::fault {

namespace {

void requireProbability(double p, const char* name) {
  if (p < 0.0 || p > 1.0)
    throw std::runtime_error{std::string{"'faults."} + name +
                             "' must be in [0, 1]"};
}

}  // namespace

// JSON field lists (ckpt/json_fields.hpp); a load also range-checks.

template <class Ar>
void fields(Ar& ar, FaultWindow& w) {
  ar.io("startTick", w.startTick);
  ar.io("endTick", w.endTick);
  if (!Ar::kLoading) return;
  if (w.startTick < 0 || w.endTick < 0)
    throw std::runtime_error{"'faults.window' ticks must be >= 0"};
  if (w.endTick != 0 && w.endTick <= w.startTick)
    throw std::runtime_error{
        "'faults.window.endTick' must be 0 (open) or > startTick"};
}

template <class Ar>
void fields(Ar& ar, SampleFaults& s) {
  ar.io("dropProbability", s.dropProbability);
  ar.io("corruptProbability", s.corruptProbability);
  ar.io("corruptScaleMin", s.corruptScaleMin);
  ar.io("corruptScaleMax", s.corruptScaleMax);
  ar.io("stuckAtZeroProbability", s.stuckAtZeroProbability);
  ar.io("stuckQuanta", s.stuckQuanta);
  ar.io("saturateMissRatioProbability", s.saturateMissRatioProbability);
  if (!Ar::kLoading) return;
  requireProbability(s.dropProbability, "samples.dropProbability");
  requireProbability(s.corruptProbability, "samples.corruptProbability");
  requireProbability(s.stuckAtZeroProbability,
                     "samples.stuckAtZeroProbability");
  requireProbability(s.saturateMissRatioProbability,
                     "samples.saturateMissRatioProbability");
  if (s.corruptScaleMin <= 0.0 || s.corruptScaleMax < s.corruptScaleMin)
    throw std::runtime_error{
        "'faults.samples' corrupt scale range must satisfy 0 < min <= max"};
  if (s.stuckQuanta < 1)
    throw std::runtime_error{"'faults.samples.stuckQuanta' must be >= 1"};
}

template <class Ar>
void fields(Ar& ar, ActuationFaults& a) {
  ar.io("swapFailProbability", a.swapFailProbability);
  ar.io("migrationFailProbability", a.migrationFailProbability);
  if (!Ar::kLoading) return;
  requireProbability(a.swapFailProbability, "actuation.swapFailProbability");
  requireProbability(a.migrationFailProbability,
                     "actuation.migrationFailProbability");
}

template <class Ar>
void fields(Ar& ar, CoreFaults& c) {
  ar.io("freqDipProbability", c.freqDipProbability);
  ar.io("freqDipFactor", c.freqDipFactor);
  ar.io("dipQuanta", c.dipQuanta);
  if (!Ar::kLoading) return;
  requireProbability(c.freqDipProbability, "cores.freqDipProbability");
  if (c.freqDipFactor <= 0.0 || c.freqDipFactor > 1.0)
    throw std::runtime_error{"'faults.cores.freqDipFactor' must be in (0, 1]"};
  if (c.dipQuanta < 1)
    throw std::runtime_error{"'faults.cores.dipQuanta' must be >= 1"};
}

template <class Ar>
void fields(Ar& ar, ChurnFaults& c) {
  ar.io("arrivals", c.arrivals);
  ar.io("threadsPerArrival", c.threadsPerArrival);
  ar.io("arrivalScale", c.arrivalScale);
  if (!Ar::kLoading) return;
  if (c.arrivals < 0)
    throw std::runtime_error{"'faults.churn.arrivals' must be >= 0"};
  if (c.arrivals > 0 && c.threadsPerArrival < 1)
    throw std::runtime_error{"'faults.churn.threadsPerArrival' must be >= 1"};
  if (c.arrivals > 0 && c.arrivalScale <= 0.0)
    throw std::runtime_error{"'faults.churn.arrivalScale' must be > 0"};
}

template <class Ar>
void fields(Ar& ar, FaultPlan& plan) {
  ar.io("seed", plan.seed);
  ar.io("window", plan.window);
  ar.io("samples", plan.samples);
  ar.io("actuation", plan.actuation);
  ar.io("cores", plan.cores);
  ar.io("churn", plan.churn);
}

template void fields(ckpt::JsonWriter& ar, FaultPlan& plan);
template void fields(ckpt::JsonReader& ar, FaultPlan& plan);

bool FaultPlan::enabled() const noexcept {
  return samples.dropProbability > 0.0 || samples.corruptProbability > 0.0 ||
         samples.stuckAtZeroProbability > 0.0 ||
         samples.saturateMissRatioProbability > 0.0 ||
         actuation.swapFailProbability > 0.0 ||
         actuation.migrationFailProbability > 0.0 ||
         cores.freqDipProbability > 0.0 || churn.arrivals > 0;
}

FaultPlan parseFaultPlan(const util::JsonValue& document) {
  if (!document.isObject())
    throw std::runtime_error{"fault plan must be a JSON object"};
  return ckpt::fromJson<FaultPlan>(document);
}

util::JsonValue toJson(const FaultPlan& plan) { return ckpt::toJson(plan); }

}  // namespace dike::fault
