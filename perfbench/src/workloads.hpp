// The benchmark's three workloads and the passes they are built from.
//
// Every workload runs all three pass kinds, so every layer and every named
// metric is measured on every workload:
//   * sweep      — independent exp::runWorkload calls fanned out with
//                  exp::parallelFor on util::TaskPool::shared(), the route
//                  exp::runWorkloadsParallel takes;
//   * decide     — the benchmark's own quantum loop: Machine::stepUntil,
//                  sampleAndResetInto, then ClusteredDikeScheduler::onQuantum;
//   * supervised — an exp::RunSession with a quantum stream attached that
//                  checkpoints after every quantum, as dike_supervise's
//                  child does, restores every Nth checkpoint, and finally
//                  resumes from a mid-run checkpoint.
// The workload's own kind is the main traffic: a closed loop of passes for
// the requested seconds. The other two kinds run as fixed-size control
// probes interleaved with it: a one-rep paper sweep on the 40-thread
// testbed, short serial-decide passes on the 4096-thread machine, and the
// large_machine_8x32 run for checkpointing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int jobs = 1;
  /// Scratch directory for checkpoints and streams (removed at the end).
  std::string workDir;
  /// Where the traced run writes its Chrome trace.
  std::string tracePath;
  /// Self-test hook: restore the first rolling checkpoint from a
  /// deliberately corrupted copy, which must count as one failed restore.
  bool tamper = false;
  /// Samples each p99 rests on at least (ten beyond it at 1000); the
  /// self-test lowers it to stay short.
  std::size_t tailSamples = 1000;
};

/// What one workload run produced.
struct RunReport {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for stderr
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::string> notes;  ///< human-readable lines for stdout
};

/// Run one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] RunReport runWorkload(const Options& opts, Tracer& tracer);

}  // namespace perfbench
