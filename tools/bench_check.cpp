// bench_check: the throughput regression gate.
//
// Compares a freshly measured BENCH_sim.json against a baseline (normally
// the committed one) on the single-threaded leap ticks/sec of each
// workload, and fails — exit 1 — when the geometric-mean ratio has
// regressed by more than the allowed percentage. Wall-clock measurements
// are noisy, so the gate is a budget, not an equality check: run it on the
// machine that produced the baseline (the `bench` preset + `ctest -L
// bench` wires this up).
//
// It also budgets the candidate's live observability-plane overhead
// (live_overhead_pct, measured by bench_sim_throughput as live-on vs
// live-off wall time): runs with --live-metrics may cost at most
// --max-live-overhead-pct (default 5%) over a plain run. Baselines
// predating the field are accepted — only the candidate is checked.
//
// It also gates the clustered scheduler's large-machine scaling claim:
// every thread_scaling row at >= 8 clusters on a >= 4096-thread machine
// must show the clustered decide-latency p99 beating the flat pipeline by
// at least --min-cluster-speedup (default 5x). Both files are checked when
// they carry the section; files without it (older baselines, capped smoke
// runs) are accepted. --min-cluster-speedup=0 disables the check.
//
// Finally, it gates intra-quantum plan parallelism: every candidate
// decide_parallel_scaling row with jobs >= 4 must show the wall-clock
// decide p99 beating the serial (jobs=1) run by at least
// --min-decide-parallel-speedup (default 2x). A curve without such rows —
// in particular the single-point curve a low-core host produces — passes
// vacuously, but LOUDLY: any scaling curve with fewer than two points
// prints a prominent warning so nobody mistakes a degenerate measurement
// for a demonstrated claim. --min-decide-parallel-speedup=0 disables the
// floor, not the shape check: in both files every decide_parallel_scaling
// row must carry jobs >= 1 and a positive decide_p99_ns and
// speedup_vs_serial, starting at jobs=1 with jobs strictly ascending.
//
//   bench_check <baseline.json> <candidate.json> [--max-regression-pct P]
//               [--max-live-overhead-pct P] [--min-cluster-speedup S]
//               [--min-decide-parallel-speedup S] [--out verdict.json]
//
// --out writes a small machine-readable verdict ({"ok": ..., ...}) for
// harnesses that archive gate results instead of scraping stdout.
//
// Exit codes: 0 within budget, 1 regression beyond budget, 2 usage or
// malformed input.
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace {

/// workload id -> leap ticks/sec, from a BENCH_sim.json document.
std::map<int, double> leapRates(const dike::util::JsonValue& doc,
                                const std::string& label) {
  const auto per = doc.get("leap_per_workload");
  if (!per || !per->isArray())
    throw std::runtime_error{label +
                             ": missing \"leap_per_workload\" array — not a "
                             "bench_sim_throughput report?"};
  std::map<int, double> rates;
  for (const dike::util::JsonValue& row : per->asArray()) {
    const int workload = row.intOr("workload", -1);
    const double rate = row.numberOr("leap_ticks_per_sec", -1.0);
    if (workload < 0 || rate <= 0.0)
      throw std::runtime_error{
          label + ": malformed leap_per_workload row (workload id or "
                  "leap_ticks_per_sec missing/non-positive)"};
    rates[workload] = rate;
  }
  if (rates.empty())
    throw std::runtime_error{label + ": leap_per_workload is empty"};
  return rates;
}

/// Check a report's thread_scaling rows against the cluster-speedup floor.
/// Returns false (after printing the offenders) when a gated row is below
/// the floor; reports without the section pass vacuously.
bool checkClusterSpeedups(const dike::util::JsonValue& doc,
                          const std::string& label, double minSpeedup) {
  const auto curve = doc.get("thread_scaling");
  if (!curve || !curve->isArray()) return true;
  bool ok = true;
  for (const dike::util::JsonValue& row : curve->asArray()) {
    const int threads = row.intOr("threads", 0);
    const int clusters = row.intOr("clusters", 0);
    const double speedup = row.numberOr("speedup_p99", 0.0);
    if (clusters < 8 || threads < 4096) continue;
    std::printf("%s: n=%d, %d clusters: clustered decide p99 %.2fx flat "
                "(floor %.2fx)\n",
                label.c_str(), threads, clusters, speedup, minSpeedup);
    if (speedup < minSpeedup) {
      std::fprintf(stderr,
                   "FAIL: %s thread_scaling n=%d (%d clusters) speedup "
                   "%.2fx < %.2fx floor\n",
                   label.c_str(), threads, clusters, speedup, minSpeedup);
      ok = false;
    }
  }
  return ok;
}

/// Loud degenerate-curve warning: a scaling section with fewer than two
/// points proves nothing (the committed BENCH_sim.json once carried a
/// hardware_concurrency=1 sweep that read like a measured claim). The
/// banner keeps a vacuous gate pass from looking like a demonstrated one.
void warnIfSinglePoint(const dike::util::JsonValue& doc,
                       const std::string& label, const char* section) {
  const auto curve = doc.get(section);
  if (!curve || !curve->isArray()) return;
  const std::size_t points = curve->asArray().size();
  if (points >= 2) return;
  std::fprintf(stderr,
               "**************************************************\n"
               "* WARNING: %s \"%s\" has %zu point(s).\n"
               "* The curve is degenerate (low-core host?); any\n"
               "* parallel-speedup gate on it passes VACUOUSLY and\n"
               "* demonstrates nothing. Regenerate the baseline on\n"
               "* a multi-core machine before citing it.\n"
               "**************************************************\n",
               label.c_str(), section, points);
}

/// Validate a report's decide_parallel_scaling rows, whatever the floor:
/// every row has jobs >= 1 and a positive decide_p99_ns and
/// speedup_vs_serial, the first row is the serial jobs=1 run, and jobs
/// strictly ascends. A malformed curve throws (exit 2). Reports without
/// the section (older baselines) and the empty curve of a capped smoke run
/// are accepted.
void checkDecideParallelShape(const dike::util::JsonValue& doc,
                              const std::string& label) {
  const auto curve = doc.get("decide_parallel_scaling");
  if (!curve) return;
  if (!curve->isArray())
    throw std::runtime_error{label +
                             ": \"decide_parallel_scaling\" is not an array"};
  int prevJobs = 0;
  for (const dike::util::JsonValue& row : curve->asArray()) {
    const int jobs = row.intOr("jobs", 0);
    if (jobs < 1 || row.numberOr("decide_p99_ns", -1.0) <= 0.0 ||
        row.numberOr("speedup_vs_serial", -1.0) <= 0.0)
      throw std::runtime_error{
          label + ": malformed decide_parallel_scaling row (jobs < 1, or "
                  "decide_p99_ns/speedup_vs_serial missing/non-positive)"};
    if (prevJobs == 0 && jobs != 1)
      throw std::runtime_error{
          label + ": decide_parallel_scaling must start at the serial "
                  "jobs=1 row, not jobs=" + std::to_string(jobs)};
    if (jobs <= prevJobs)
      throw std::runtime_error{
          label + ": decide_parallel_scaling jobs must strictly ascend (" +
          std::to_string(prevJobs) + " then " + std::to_string(jobs) + ")"};
    prevJobs = jobs;
  }
}

/// Gate the candidate's decide_parallel_scaling rows with jobs >= 4
/// against the wall-clock speedup floor. Reports without the section, or
/// without any gated row (degenerate single-point curves), pass vacuously.
bool checkDecideParallelSpeedup(const dike::util::JsonValue& doc,
                                const std::string& label, double minSpeedup) {
  const auto curve = doc.get("decide_parallel_scaling");
  if (!curve || !curve->isArray()) return true;
  bool ok = true;
  for (const dike::util::JsonValue& row : curve->asArray()) {
    const int jobs = row.intOr("jobs", 0);
    const double speedup = row.numberOr("speedup_vs_serial", 0.0);
    if (jobs < 4) continue;
    std::printf("%s: decide jobs=%d: wall decide p99 %.2fx serial "
                "(floor %.2fx)\n",
                label.c_str(), jobs, speedup, minSpeedup);
    if (speedup < minSpeedup) {
      std::fprintf(stderr,
                   "FAIL: %s decide_parallel_scaling jobs=%d speedup "
                   "%.2fx < %.2fx floor\n",
                   label.c_str(), jobs, speedup, minSpeedup);
      ok = false;
    }
  }
  return ok;
}

/// Write the machine-readable verdict (--out). Failure to write is a usage
/// error (exit 2), reported by the caller.
bool writeVerdict(const std::string& path, bool ok, double geomeanRatio,
                  const std::string& reason) {
  dike::util::JsonObject verdict;
  verdict.emplace("ok", ok);
  verdict.emplace("leap_geomean_ratio", geomeanRatio);
  if (!reason.empty()) verdict.emplace("reason", reason);
  const dike::util::JsonValue doc{std::move(verdict)};
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    const std::string text = doc.dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const dike::util::CliArgs args{argc, argv};
  const std::vector<std::string>& positional = args.positional();
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: %s <baseline.json> <candidate.json> "
                 "[--max-regression-pct P] [--max-live-overhead-pct P] "
                 "[--min-cluster-speedup S] "
                 "[--min-decide-parallel-speedup S] [--out verdict.json]\n",
                 argv[0]);
    return 2;
  }
  const double maxRegressionPct = args.getDouble("max-regression-pct", 10.0);
  const double maxLiveOverheadPct =
      args.getDouble("max-live-overhead-pct", 5.0);
  const double minClusterSpeedup = args.getDouble("min-cluster-speedup", 5.0);
  const double minDecideParallelSpeedup =
      args.getDouble("min-decide-parallel-speedup", 2.0);
  const std::string outPath = args.getOr("out", "");

  double geo = 0.0;
  std::string reason;
  int code = 0;
  try {
    const dike::util::JsonValue baselineDoc =
        dike::util::parseJsonFile(positional[0]);
    const dike::util::JsonValue candidateDoc =
        dike::util::parseJsonFile(positional[1]);
    const auto baseline = leapRates(baselineDoc, positional[0]);
    const auto candidate = leapRates(candidateDoc, positional[1]);
    checkDecideParallelShape(baselineDoc, positional[0]);
    checkDecideParallelShape(candidateDoc, positional[1]);

    std::vector<double> ratios;
    std::printf("%-10s %18s %18s %8s\n", "workload", "baseline ticks/s",
                "candidate ticks/s", "ratio");
    for (const auto& [workload, baseRate] : baseline) {
      const auto it = candidate.find(workload);
      if (it == candidate.end()) {
        std::fprintf(stderr,
                     "candidate is missing workload %d present in the "
                     "baseline\n",
                     workload);
        return 2;
      }
      const double ratio = it->second / baseRate;
      ratios.push_back(ratio);
      std::printf("wl%-8d %18.0f %18.0f %7.3fx\n", workload, baseRate,
                  it->second, ratio);
    }

    geo = dike::util::geometricMean(ratios);
    const double regressionPct = (1.0 - geo) * 100.0;
    std::printf("geomean ratio: %.3fx (%+.1f%%, budget -%.1f%%)\n", geo,
                (geo - 1.0) * 100.0, maxRegressionPct);
    if (regressionPct > maxRegressionPct) {
      std::fprintf(stderr,
                   "FAIL: leap throughput regressed %.1f%% > %.1f%% budget\n",
                   regressionPct, maxRegressionPct);
      reason = "leap throughput regression beyond budget";
      code = 1;
    }

    if (code == 0) {
      if (const auto live = candidateDoc.get("live_overhead_pct");
          live && live->isNumber()) {
        const double liveOverheadPct = live->asNumber();
        std::printf("live-plane overhead: %+.1f%% (budget +%.1f%%)\n",
                    liveOverheadPct, maxLiveOverheadPct);
        if (liveOverheadPct > maxLiveOverheadPct) {
          std::fprintf(
              stderr,
              "FAIL: live observability overhead %.1f%% > %.1f%% budget\n",
              liveOverheadPct, maxLiveOverheadPct);
          reason = "live observability overhead beyond budget";
          code = 1;
        }
      }
    }

    if (code == 0 && minClusterSpeedup > 0.0) {
      if (!checkClusterSpeedups(baselineDoc, "baseline", minClusterSpeedup) ||
          !checkClusterSpeedups(candidateDoc, "candidate",
                                minClusterSpeedup)) {
        reason = "clustered decide-latency speedup below floor";
        code = 1;
      }
    }

    // Degenerate curves pass every gate vacuously — say so, loudly, for
    // both files and both scaling sections.
    warnIfSinglePoint(baselineDoc, "baseline", "sweep_scaling");
    warnIfSinglePoint(candidateDoc, "candidate", "sweep_scaling");
    warnIfSinglePoint(baselineDoc, "baseline", "decide_parallel_scaling");
    warnIfSinglePoint(candidateDoc, "candidate", "decide_parallel_scaling");

    if (code == 0 && minDecideParallelSpeedup > 0.0) {
      if (!checkDecideParallelSpeedup(candidateDoc, "candidate",
                                      minDecideParallelSpeedup)) {
        reason = "intra-quantum decide parallel speedup below floor";
        code = 1;
      }
    }

    if (code == 0) std::printf("OK: within regression budget\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_check: %s\n", e.what());
    reason = e.what();
    code = 2;
  }

  if (!outPath.empty() &&
      !writeVerdict(outPath, code == 0, geo, reason)) {
    std::fprintf(stderr, "bench_check: cannot write %s\n", outPath.c_str());
    return 2;
  }
  return code;
}
