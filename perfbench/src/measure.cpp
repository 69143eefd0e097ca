#include "measure.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

#include "util/histogram.hpp"

namespace perfbench {

namespace {

thread_local int tlsCurrentSpan = -1;
std::atomic<int> nextThreadIndex{0};

}  // namespace

double Samples::percentile(double q) const {
  return dike::util::percentile(values_, 100.0 * q);
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

void Tracer::record(SpanRecord span) {
  const std::lock_guard lock{mu_};
  spans_.push_back(std::move(span));
}

std::map<std::string_view, double> Tracer::selfTimeNs() const {
  std::map<int, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans_) children[s.parent].push_back(&s);

  std::map<std::string_view, double> self;
  for (const SpanRecord& s : spans_) {
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const std::int64_t a = std::max(c->startNs, s.startNs);
        const std::int64_t b = std::min(c->endNs, s.endNs);
        if (b > a) covered.emplace_back(a, b);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t coveredNs = 0;
    std::int64_t reach = s.startNs;
    for (const auto& [a, b] : covered) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) coveredNs += b - from;
      reach = std::max(reach, b);
    }
    self[s.layer] += static_cast<double>(s.endNs - s.startNs - coveredNs);
  }
  return self;
}

dike::util::JsonValue Tracer::chromeTrace(
    const dike::util::JsonValue& host) const {
  using dike::util::JsonArray;
  using dike::util::JsonObject;
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
  int maxTid = 0;
  for (const SpanRecord& s : spans_) {
    origin = std::min(origin, s.startNs);
    maxTid = std::max(maxTid, s.tid);
  }
  auto metadata = [](const char* name, int tid, JsonObject args) {
    return JsonObject{{"ph", "M"},  {"name", name}, {"pid", 1},
                      {"tid", tid}, {"ts", 0},      {"args", std::move(args)}};
  };
  auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1e3; };
  JsonArray events;
  events.reserve(spans_.size() + static_cast<std::size_t>(maxTid) + 2);
  events.emplace_back(metadata("process_name", 0,
                               {{"name", "perfbench"}, {"host", host}}));
  for (int t = 0; t <= maxTid; ++t)
    events.emplace_back(metadata(
        "thread_name", t, {{"name", "host thread " + std::to_string(t)}}));
  for (const SpanRecord& s : spans_) {
    events.emplace_back(JsonObject{
        {"ph", "X"},
        {"name", s.name},
        {"cat", std::string{s.layer}},
        {"pid", 1},
        {"tid", s.tid},
        {"ts", us(s.startNs - origin)},
        {"dur", us(s.endNs - s.startNs)},
        {"args", JsonObject{{"id", s.id}, {"parent", s.parent}}}});
  }
  return JsonObject{{"traceEvents", std::move(events)}};
}

int hostThreadIndex() {
  thread_local const int index = nextThreadIndex.fetch_add(1);
  return index;
}

Span::Span(Tracer& tracer, std::string_view layer, std::string_view name,
           int parent)
    : tracer_(&tracer) {
  record_.layer = layer;
  record_.startNs = nowNs();
  if (!tracer.enabled()) return;
  record_.name = name;
  record_.id = tracer.nextId();
  record_.parent = parent == kInherit ? tlsCurrentSpan : parent;
  record_.tid = hostThreadIndex();
  savedCurrent_ = tlsCurrentSpan;
  tlsCurrentSpan = record_.id;
}

std::int64_t Span::stop() {
  if (open_) {
    open_ = false;
    record_.endNs = nowNs();
    if (record_.id != 0) {
      tlsCurrentSpan = savedCurrent_;
      tracer_->record(record_);
    }
  }
  return record_.endNs - record_.startNs;
}

bool HostRecord::optimisedBuild() const {
  return buildType == "Release" || buildType == "RelWithDebInfo" ||
         buildType == "MinSizeRel";
}

dike::util::JsonValue HostRecord::json() const {
  return dike::util::JsonObject{{"seed", static_cast<double>(seed)},
                                {"nproc", nproc},
                                {"jobs", jobs},
                                {"cpu", cpuModel},
                                {"build", buildType}};
}

HostRecord describeHost(std::uint64_t seed, int jobs) {
  HostRecord host;
  host.seed = seed;
  host.jobs = jobs;
  host.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  host.buildType = PERFBENCH_BUILD_TYPE;
  std::ifstream cpuinfo{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos)
      host.cpuModel = line.substr(line.find_first_not_of(' ', colon + 1));
    break;
  }
  if (host.cpuModel.empty()) host.cpuModel = "unknown";
  return host;
}

double peakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string resultLine(
    bool correct, std::int64_t attempted, std::int64_t failed,
    const std::vector<std::pair<std::string, Metric>>& metrics) {
  using dike::util::JsonObject;
  using dike::util::JsonValue;
  JsonObject values;
  for (const auto& [name, metric] : metrics) {
    // JSON has no NaN or infinity; a value that is not finite prints null.
    values.emplace(name, JsonObject{{"value", std::isfinite(metric.value)
                                                  ? JsonValue{metric.value}
                                                  : JsonValue{}},
                                    {"unit", metric.unit}});
  }
  return JsonValue{JsonObject{{"correct", correct},
                              {"attempted", attempted},
                              {"failed", failed},
                              {"metrics", std::move(values)}}}
      .dump();
}

}  // namespace perfbench
