// Measurement plumbing for the repository benchmark: clocks, sample sets,
// an in-memory span tracer that exports Chrome trace_event JSON and
// per-layer self time, the host record, and the result line the benchmark
// prints last.
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID) or of every
/// thread of the process (CLOCK_PROCESS_CPUTIME_ID). With paravirtualised
/// steal accounting the kernel leaves out time the hypervisor took from
/// the vCPU, so operations timed with it do not drift with other tenants'
/// load, while more work still shows in full.
[[nodiscard]] inline std::int64_t cpuNs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time on one of those clocks since construction.
class CpuStopwatch {
 public:
  explicit CpuStopwatch(clockid_t clock = CLOCK_THREAD_CPUTIME_ID)
      : clock_(clock), startNs_(cpuNs(clock)) {}
  [[nodiscard]] std::int64_t elapsedNs() const {
    return cpuNs(clock_) - startNs_;
  }

 private:
  clockid_t clock_;
  std::int64_t startNs_;
};

/// Timing or count samples of one quantity.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void add(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  /// Interpolated percentile (q in [0, 1]); 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(0.5); }
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> values_;
};

/// The layers of the library (its src/ modules), plus the benchmark's own
/// harness time.
inline constexpr std::string_view kLayers[] = {
    "sim", "core", "sched", "util", "exp", "ckpt", "telemetry", "bench"};

/// One recorded span: [startNs, endNs) on host thread `tid`.
struct SpanRecord {
  std::string name;
  std::string_view layer;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int id = 0;
  int parent = -1;
  int tid = 0;
};

/// Keeps spans in memory while enabled; Span scopes always time themselves
/// so the untraced path pays two clock reads and nothing else.
class Tracer {
 public:
  void setEnabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] int nextId() noexcept { return nextId_.fetch_add(1); }
  void record(SpanRecord span);

  /// Spans recorded so far, in completion order.
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Self time per layer: each span's duration minus the union of its
  /// children's intervals (clipped to it), summed by layer, in ns.
  [[nodiscard]] std::map<std::string_view, double> selfTimeNs() const;

  /// Chrome trace_event JSON (one "X" slice per span, pid 1, tid = host
  /// thread); `host` is attached to the process metadata.
  [[nodiscard]] dike::util::JsonValue chromeTrace(
      const dike::util::JsonValue& host) const;

 private:
  bool enabled_ = false;
  std::atomic<int> nextId_{1};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Small dense id for the calling host thread (0 = first thread seen).
[[nodiscard]] int hostThreadIndex();

/// RAII span. The parent defaults to the innermost open span on this
/// thread; pass one explicitly for work handed to another thread.
class Span {
 public:
  Span(Tracer& tracer, std::string_view layer, std::string_view name,
       int parent = kInherit);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span (idempotent) and return its duration in ns.
  std::int64_t stop();
  [[nodiscard]] int id() const noexcept { return record_.id; }

  static constexpr int kInherit = -2;

 private:
  Tracer* tracer_;
  SpanRecord record_;
  int savedCurrent_ = -1;
  bool open_ = true;
};

/// Host facts recorded with every result.
struct HostRecord {
  std::uint64_t seed = 0;
  int nproc = 0;
  int jobs = 0;
  std::string cpuModel;
  std::string buildType;
  [[nodiscard]] bool optimisedBuild() const;
  [[nodiscard]] dike::util::JsonValue json() const;
};
[[nodiscard]] HostRecord describeHost(std::uint64_t seed, int jobs);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peakRssMb();

/// One printed metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The result object: the last line the benchmark prints.
[[nodiscard]] std::string resultLine(
    bool correct, std::int64_t attempted, std::int64_t failed,
    const std::vector<std::pair<std::string, Metric>>& metrics);

}  // namespace perfbench
