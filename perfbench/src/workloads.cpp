#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "core/clustered_scheduler.hpp"
#include "exp/parallel.hpp"
#include "exp/replay.hpp"
#include "exp/runner.hpp"
#include "sched/placement.hpp"
#include "telemetry/quantum_stream.hpp"
#include "util/atomic_file.hpp"
#include "util/stats.hpp"
#include "workload/workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace exp = dike::exp;
namespace sim = dike::sim;
using dike::exp::SchedulerKind;

/// Quanta at the start of each decide pass left out of decide latency:
/// the first plans size every per-cluster buffer.
constexpr int kWarmupQuanta = 4;
/// cluster_4096 passes are tick-limited to this many quanta, well before
/// any thread finishes; decide probe passes to fewer.
constexpr int kClusterPassQuanta = 128;
constexpr int kDecideProbeQuanta = 32;
/// Runs behind the decide probe (28 measured quanta each) and the
/// supervised probe (~48 checkpoints each).
constexpr int kDecideProbeRuns = 8;
constexpr int kSupervisedProbeRuns = 6;
/// Supervised passes restore every Nth rolling checkpoint.
constexpr std::int64_t kRestoreEvery = 8;
/// The main loop never starts a pass after this long, whatever the
/// sample targets say, so a run always ends within the time limit.
constexpr double kMaxMainSeconds = 120.0;

double nsToUs(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
double nsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double nsToS(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof v);
    add(bits);
  }
};

/// Operations attempted and failed; a failed check never aborts the run.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, std::string_view what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.emplace_back(what);
  }
};

// ---------------------------------------------------------------- shapes

sim::SocketSpec socket(int physicalCores, int smtWays, bool fast) {
  sim::SocketSpec s;
  s.physicalCores = physicalCores;
  s.smtWays = smtWays;
  s.freqGhz = fast ? 2.33 : 1.21;
  s.type = fast ? sim::CoreType::Fast : sim::CoreType::Slow;
  return s;
}

dike::core::DikeConfig clustered(int clusters, int decideJobs) {
  dike::core::DikeConfig cfg;
  cfg.cluster.clusters = clusters;
  cfg.cluster.decideJobs = decideJobs;
  return cfg;
}

/// One run of configs/paper_evaluation.json: scale 0.5, the 40-thread
/// testbed, rep r seeded at seed + 1000 r.
exp::RunSpec paperSpec(int workloadId, SchedulerKind kind,
                       std::uint64_t seed) {
  exp::RunSpec spec;
  spec.workloadId = workloadId;
  spec.kind = kind;
  spec.scale = 0.5;
  spec.seed = seed;
  return spec;
}

/// The paper_evaluation traffic: 16 workloads x 3 reps x 5 schedulers,
/// in runExperiment's order.
std::vector<exp::RunSpec> paperSweepSpecs(std::uint64_t seed) {
  std::vector<exp::RunSpec> specs;
  for (int w = 1; w <= 16; ++w)
    for (std::uint64_t rep = 0; rep < 3; ++rep)
      for (const SchedulerKind kind : exp::allSchedulerKinds())
        specs.push_back(paperSpec(w, kind, seed + rep * 1000));
  return specs;
}

/// Sweep probe: one rep of the paper traffic (80 runs). Probes cover all
/// sixteen workloads so that the seed moves placement and noise, not the
/// mix of work.
std::vector<exp::RunSpec> probeSweepSpecs(std::uint64_t seed) {
  std::vector<exp::RunSpec> specs;
  for (int w = 1; w <= 16; ++w)
    for (const SchedulerKind kind : exp::allSchedulerKinds())
      specs.push_back(paperSpec(w, kind, seed));
  return specs;
}

/// 32 sockets x 64 cores x SMT2, alternating fast and slow, filled by four
/// 1024-thread apps (bench_sim_throughput's 4096-thread scaling point).
exp::RunSpec cluster4096Spec(std::uint64_t seed, int decideJobs) {
  exp::RunSpec spec;
  for (int s = 0; s < 32; ++s)
    spec.topology.push_back(socket(64, 2, s % 2 == 0));
  dike::wl::WorkloadSpec workload;
  workload.name = "scale4096";
  workload.apps = {"stream_omp", "hotspot", "jacobi", "srad"};
  workload.includeKmeans = false;
  spec.customWorkload = workload;
  spec.threadsPerApp = 1024;
  spec.scale = 1.0;
  spec.kind = SchedulerKind::Dike;
  spec.dikeConfig = clustered(32, decideJobs);
  spec.seed = seed;
  return spec;
}

/// configs/large_machine_8x32.json: 256 threads, 8 clusters, workload 2.
exp::RunSpec supervisedSpec(std::uint64_t seed) {
  exp::RunSpec spec;
  for (int s = 0; s < 8; ++s)
    spec.topology.push_back(socket(32, 1, s % 2 == 0));
  spec.workloadId = 2;
  spec.kind = SchedulerKind::Dike;
  spec.scale = 0.1;
  spec.threadsPerApp = 48;
  spec.dikeConfig = clustered(8, 1);
  spec.seed = seed;
  return spec;
}

/// Supervised probe: the large_machine_8x32 run under `count` seeds.
/// Encoding is half of its ~4 ms checkpoints; the testbed's ~1 ms ones are
/// mostly fsync, whose latency a shared host does not hold steady.
std::vector<exp::RunSpec> supervisedProbeSpecs(std::uint64_t seed, int count) {
  std::vector<exp::RunSpec> specs;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(count); ++i)
    specs.push_back(supervisedSpec(seed + i * 1000));
  return specs;
}

/// Decide probe: the cluster_4096 machine under `count` seeds, planned
/// serially. Its ~4 ms decides hold steady from run to run; the 8x32
/// run's ~0.1 ms ones moved by 30 % between runs of one seed.
std::vector<exp::RunSpec> decideProbeSpecs(std::uint64_t seed, int count) {
  std::vector<exp::RunSpec> specs;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(count); ++i)
    specs.push_back(cluster4096Spec(seed + i * 1000, 1));
  return specs;
}

// ---------------------------------------------------------------- stats

/// Set-up, wall and CPU time of a pass kind; wall split by traced and
/// untraced passes.
struct PassClock {
  Samples setupS;       ///< CPU time of the calling thread
  Samples wallS;        ///< untraced passes
  Samples wallTracedS;  ///< traced passes
  Samples cpuS;         ///< untraced passes, CPU time of every thread
  void add(std::int64_t wallNs, std::int64_t cpuNs, bool traced) {
    (traced ? wallTracedS : wallS).add(nsToS(wallNs));
    if (!traced) cpuS.add(nsToS(cpuNs));
  }
};

struct SweepStats {
  PassClock clock;
  Samples runMs;  ///< traced passes
  std::map<std::string, Samples> runMsByKind;
  Samples queueWaitMs;
  double busyNs = 0.0;
  double capacityNs = 0.0;  ///< jobs x pass wall
  double fairnessGm = 0.0;
  double speedupGm = 0.0;
  std::optional<std::uint64_t> digest;
};

/// What a decide pass leaves behind besides its per-layer timings.
struct DecideOutcome {
  /// decide_cpu_p50_us samples after warm-up: CPU time of every thread of the
  /// process around onQuantum (the pool's workers block when idle).
  Samples decideUs;
  Samples decideWallUs;  ///< wall around onQuantum, after warm-up
  /// Final placement, machine counters and decision counts.
  std::uint64_t digest = 0;
  std::int64_t actuations = 0;  ///< swaps + migrations on the machine
  dike::core::DecisionTotals totals{};
  std::int64_t rebalanceMoves = 0;
  std::int64_t ticks = 0;
  double leapRatio = 0.0;
};

struct DecideStats {
  PassClock clock;
  Samples decideUs;      ///< untraced passes, after warm-up
  Samples decideWallUs;  ///< untraced passes, wall
  Samples decideTracedUs, stepUs, sampleUs, decideWallNsUs, planMaxUs,
      scatterUs;
  Samples twinDecideWallUs;  ///< twins at the other decideJobs (traced run)
  std::map<std::size_t, std::uint64_t> digests;  ///< by spec index
  /// The first pass of the first spec: its counts repeat on every pass.
  DecideOutcome first;
  /// The acting spec's own pass in the traced run's twin check.
  DecideOutcome acting;
};

struct SupervisedStats {
  PassClock clock;
  Samples saveMs;  ///< every writeCheckpoint, untraced and traced
  Samples restoreMs;
  Samples checkpointBytes;
  Samples payloadUs, writeUs, restoreTracedUs, stepQuantumUs;  ///< traced
  std::int64_t ticks = 0;
  double leapRatio = 0.0;
};

struct Context {
  const Options& opts;
  Tracer& tracer;
  Ledger& ledger;
};

// ---------------------------------------------------------------- sweep

/// One sweep pass: every spec through exp::runWorkload on the shared pool.
void sweepPass(Context& ctx, const std::vector<exp::RunSpec>& specs,
               bool traced, SweepStats& st) {
  Tracer& tracer = ctx.tracer;
  tracer.setEnabled(traced);
  {
    // Set-up as a user pays it: the run stack (machine, workload,
    // placement, scheduler) of every spec, built and torn down.
    Span setup{tracer, "bench", "bench.sweep_setup"};
    const CpuStopwatch cpu;
    for (const exp::RunSpec& spec : specs) {
      Span s{tracer, "exp", "exp.RunSession"};
      const exp::RunSession session{spec};
    }
    st.clock.setupS.add(nsToS(cpu.elapsedNs()));
  }

  const std::size_t n = specs.size();
  std::vector<exp::RunMetrics> results(n);
  std::vector<char> ok(n, 0);
  std::vector<std::int64_t> waitNs(n, 0);
  std::vector<std::int64_t> runNs(n, 0);

  Span pass{tracer, "bench", "bench.sweep_pass"};
  const CpuStopwatch passCpu{CLOCK_PROCESS_CPUTIME_ID};
  {
    Span fanout{tracer, "util", "util.forEach"};
    const int fanoutId = fanout.id();
    const std::int64_t start = nowNs();
    exp::parallelFor(
        n,
        [&](std::size_t i) {
          waitNs[i] = nowNs() - start;
          Span task{tracer, "util", "util.task", fanoutId};
          Span run{tracer, "exp", "exp.runWorkload"};
          try {
            results[i] = exp::runWorkload(specs[i]);
            ok[i] = 1;
          } catch (const std::exception&) {
            ok[i] = 0;
          }
          runNs[i] = run.stop();
        },
        ctx.opts.jobs);
  }
  const std::int64_t cpuNs = passCpu.elapsedNs();
  const std::int64_t wallNs = pass.stop();
  st.clock.add(wallNs, cpuNs, traced);
  if (traced) {
    for (std::size_t i = 0; i < n; ++i) {
      st.runMs.add(nsToMs(runNs[i]));
      st.runMsByKind[std::string{exp::toString(specs[i].kind)}].add(
          nsToMs(runNs[i]));
      st.queueWaitMs.add(nsToMs(waitNs[i]));
      st.busyNs += static_cast<double>(runNs[i]);
    }
    st.capacityNs += static_cast<double>(ctx.opts.jobs) *
                     static_cast<double>(wallNs);
  }

  // Output checks: each run, the paper's fairness ordering, and repeat.
  std::map<std::pair<int, std::uint64_t>, double> cfsMakespan;
  std::vector<double> dikeFairness, cfsFairness, speedups;
  Fnv digest;
  for (std::size_t i = 0; i < n; ++i) {
    const exp::RunMetrics& m = results[i];
    const bool good = ok[i] != 0 && !m.timedOut && std::isfinite(m.fairness) &&
                      m.fairness > 0.0 && m.fairness <= 1.0 && m.makespan > 0;
    ctx.ledger.check(good, "sweep run " + std::to_string(i) + " (" +
                               m.workload + ", " + m.scheduler + ")");
    digest.add(static_cast<std::uint64_t>(m.makespan));
    digest.add(m.fairness);
    if (specs[i].kind == SchedulerKind::Cfs) {
      cfsMakespan[{specs[i].workloadId, specs[i].seed}] =
          static_cast<double>(m.makespan);
      cfsFairness.push_back(m.fairness);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (specs[i].kind != SchedulerKind::Dike) continue;
    dikeFairness.push_back(results[i].fairness);
    const auto base = cfsMakespan.find({specs[i].workloadId, specs[i].seed});
    if (base != cfsMakespan.end() && results[i].makespan > 0)
      speedups.push_back(base->second /
                         static_cast<double>(results[i].makespan));
  }
  st.fairnessGm = dike::util::geometricMean(dikeFairness);
  st.speedupGm = dike::util::geometricMean(speedups);
  ctx.ledger.check(st.fairnessGm >= dike::util::geometricMean(cfsFairness),
                   "Dike fairness geomean below CFS's");
  if (!st.digest) st.digest = digest.h;
  ctx.ledger.check(*st.digest == digest.h,
                   "sweep results differ across passes");
}

// ---------------------------------------------------------------- decide

/// The machine and scheduler exp::runWorkload would build for a spec.
struct BuiltRun {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<dike::sched::Scheduler> scheduler;
};

BuiltRun buildRun(Tracer& tracer, const exp::RunSpec& spec) {
  BuiltRun run;
  {
    Span s{tracer, "sim", "sim.Machine"};
    sim::MachineConfig cfg = spec.machine;
    cfg.seed = spec.seed;
    run.machine =
        std::make_unique<sim::Machine>(exp::topologyForSpec(spec), cfg);
    dike::wl::addWorkloadProcesses(
        *run.machine,
        spec.customWorkload ? *spec.customWorkload
                            : dike::wl::workload(spec.workloadId),
        spec.scale, spec.threadsPerApp);
  }
  {
    Span s{tracer, "sched", "sched.placeRandom"};
    dike::sched::placeRandom(*run.machine, spec.seed);
  }
  {
    Span s{tracer, "exp", "exp.makeScheduler"};
    run.scheduler = exp::makeScheduler(spec);
  }
  return run;
}

std::uint64_t placementDigest(const sim::Machine& machine,
                              const dike::core::DecisionTotals& totals,
                              std::int64_t rebalanceMoves) {
  Fnv digest;
  for (const sim::SimThread& t : machine.threads()) {
    digest.add(static_cast<std::uint64_t>(t.coreId));
    digest.add(static_cast<std::uint64_t>(t.finished));
  }
  for (const std::int64_t v :
       {machine.swapCount(), machine.migrationCount(), machine.now(),
        totals.quanta, totals.actedQuanta, totals.pairsConsidered,
        totals.rejectedCooldown, totals.rejectedProfit, totals.swapsExecuted,
        totals.swapsFailed, totals.migrationsFailed, rebalanceMoves})
    digest.add(static_cast<std::uint64_t>(v));
  return digest.h;
}

/// One decide pass: the benchmark's own quantum loop over a fresh run
/// stack.
DecideOutcome decidePass(Context& ctx, const exp::RunSpec& spec,
                         int maxQuanta, bool traced, DecideStats& st) {
  Tracer& tracer = ctx.tracer;
  tracer.setEnabled(traced);
  BuiltRun run;
  {
    Span setup{tracer, "bench", "bench.decide_setup"};
    const CpuStopwatch cpu;
    run = buildRun(tracer, spec);
    st.clock.setupS.add(nsToS(cpu.elapsedNs()));
  }
  sim::Machine& machine = *run.machine;
  dike::sched::Scheduler& scheduler = *run.scheduler;
  const auto* clustered =
      dynamic_cast<const dike::core::ClusteredDikeScheduler*>(&scheduler);

  DecideOutcome out;
  Span pass{tracer, "bench", "bench.decide_pass"};
  const CpuStopwatch passCpu{CLOCK_PROCESS_CPUTIME_ID};
  sim::QuantumSample sample;
  dike::util::Tick nextQuantumAt = scheduler.quantumTicks();
  for (int q = 0; q < maxQuanta && !machine.allFinished(); ++q) {
    Span step{tracer, "sim", "sim.stepUntil"};
    machine.stepUntil(nextQuantumAt);
    const std::int64_t stepNs = step.stop();
    if (machine.allFinished()) break;
    Span sampling{tracer, "sim", "sim.sampleAndResetInto"};
    machine.sampleAndResetInto(sample);
    const std::int64_t sampleNs = sampling.stop();
    dike::sched::SchedulerView view{machine, sample};
    bool ok = true;
    Span decide{tracer, "core", "core.onQuantum"};
    const CpuStopwatch cpu{CLOCK_PROCESS_CPUTIME_ID};
    try {
      scheduler.onQuantum(view);
    } catch (const std::exception&) {
      ok = false;
    }
    const std::int64_t decideCpuNs = cpu.elapsedNs();
    const std::int64_t decideNs = decide.stop();
    ctx.ledger.check(ok, "onQuantum threw");
    nextQuantumAt += std::max<dike::util::Tick>(1, scheduler.quantumTicks());
    if (q < kWarmupQuanta) continue;
    out.decideUs.add(nsToUs(decideCpuNs));
    out.decideWallUs.add(nsToUs(decideNs));
    if (traced) {
      st.stepUs.add(nsToUs(stepNs));
      st.sampleUs.add(nsToUs(sampleNs));
      if (clustered != nullptr) {
        st.decideWallNsUs.add(nsToUs(clustered->lastDecideWallNs()));
        st.planMaxUs.add(nsToUs(clustered->lastDecideNs()));
        st.scatterUs.add(nsToUs(clustered->lastScatterNs()));
      }
    }
  }
  const std::int64_t passCpuNs = passCpu.elapsedNs();
  st.clock.add(pass.stop(), passCpuNs, traced);

  if (const auto* dike =
          dynamic_cast<const dike::core::DikeScheduler*>(&scheduler))
    out.totals = dike->decisionTotals();
  out.rebalanceMoves = clustered != nullptr ? clustered->rebalanceMoves() : 0;
  out.digest = placementDigest(machine, out.totals, out.rebalanceMoves);
  out.actuations = machine.swapCount() + machine.migrationCount();
  const sim::StepStats steps = machine.stepStats();
  out.ticks = machine.now();
  out.leapRatio = static_cast<double>(steps.leapedTicks) /
                  static_cast<double>(std::max<dike::util::Tick>(
                      1, steps.computedTicks + steps.leapedTicks));
  return out;
}

/// Pass `index` runs specs[index % size]; a spec run twice must end in
/// the same placement.
void decidePassChecked(Context& ctx, const std::vector<exp::RunSpec>& specs,
                       std::size_t index, int maxQuanta, bool traced,
                       DecideStats& st) {
  const std::size_t which = index % specs.size();
  const DecideOutcome out =
      decidePass(ctx, specs[which], maxQuanta, traced, st);
  if (traced) {
    st.decideTracedUs.add(out.decideWallUs);
  } else {
    st.decideUs.add(out.decideUs);
    st.decideWallUs.add(out.decideWallUs);
  }
  const auto [it, first] = st.digests.emplace(which, out.digest);
  ctx.ledger.check(first || it->second == out.digest,
                   "placement digest differs across passes");
  if (which == 0 && first) st.first = out;
}

/// The spec with its decide plans run at `jobs`.
exp::RunSpec withDecideJobs(exp::RunSpec spec, int jobs) {
  spec.dikeConfig->cluster.decideJobs = jobs;
  return spec;
}

/// The traced run's determinism check. Each decide spec runs once more,
/// untraced, at the other decideJobs (1 for a spec planned on the pool,
/// the pool's jobs for a serial one); its placement digest — placement,
/// machine counters and decision counts — must match the spec's own
/// passes. The 4096-thread specs never swap or migrate a thread within a
/// pass (each cluster is one socket of identical cores), so the `acting`
/// spec — the large_machine_8x32 run, whose rebalancer migrates threads —
/// runs to completion at both jobs counts as well. A comparison that never
/// swapped or migrated a thread proves nothing, so the check fails when no
/// compared pass actuated.
void decideTwins(Context& ctx, const std::vector<exp::RunSpec>& specs,
                 int maxQuanta, const exp::RunSpec& acting, DecideStats& st) {
  std::int64_t actuations = 0;
  auto run = [&](const exp::RunSpec& spec, int jobs, int quanta) {
    DecideStats scratch;
    DecideOutcome out =
        decidePass(ctx, withDecideJobs(spec, jobs), quanta, false, scratch);
    actuations += out.actuations;
    return out;
  };
  auto otherJobs = [&](const exp::RunSpec& spec) {
    return spec.dikeConfig->cluster.decideJobs == 1 ? ctx.opts.jobs : 1;
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const DecideOutcome twin = run(specs[i], otherJobs(specs[i]), maxQuanta);
    st.twinDecideWallUs.add(twin.decideWallUs);
    ctx.ledger.check(st.digests.contains(i) && st.digests.at(i) == twin.digest,
                     "decide twin placement digest differs");
  }
  constexpr int kToCompletion = 1 << 30;
  st.acting = run(acting, acting.dikeConfig->cluster.decideJobs, kToCompletion);
  ctx.ledger.check(
      run(acting, otherJobs(acting), kToCompletion).digest == st.acting.digest,
      "decide twin placement digest differs (acting spec)");
  ctx.ledger.check(actuations > 0,
                   "no decide twin comparison swapped or migrated a thread");
}

// ---------------------------------------------------------------- supervised

std::string readFile(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// First `lines` newline-terminated lines of `text`.
std::string_view firstLines(std::string_view text, std::int64_t lines) {
  std::size_t end = 0;
  for (std::int64_t i = 0; i < lines; ++i) {
    const std::size_t nl = text.find('\n', end);
    if (nl == std::string_view::npos) return text;
    end = nl + 1;
  }
  return text.substr(0, end);
}

/// Wall and calling-thread CPU time of one operation.
struct Timing {
  std::int64_t wallNs = 0;
  std::int64_t cpuNs = 0;
};

/// Restore the checkpoint at `path` and check it holds `quantum` quanta.
/// Returns the restore's timing, or nothing when the restore failed.
std::optional<Timing> restoreChecked(Context& ctx, const std::string& path,
                                     std::int64_t quantum,
                                     const std::string& what) {
  Span span{ctx.tracer, "ckpt", "ckpt.restore"};
  const CpuStopwatch cpu;
  bool ok = false;
  try {
    const auto restored = exp::RunSession::restore(path);
    ok = restored->quantumIndex() == quantum;
  } catch (const std::exception&) {
    ok = false;
  }
  const std::int64_t cpuNs = cpu.elapsedNs();
  const Timing timing{span.stop(), cpuNs};
  ctx.ledger.check(ok, what);
  if (!ok) return std::nullopt;
  return timing;
}

/// One supervised pass in `dir`: step, stream, checkpoint after every
/// quantum, restore every Nth checkpoint, finish, then resume from the
/// mid-run checkpoint and compare the report and stream byte for byte.
void supervisedPass(Context& ctx, const exp::RunSpec& spec,
                    const std::string& dir, bool traced, bool tamper,
                    SupervisedStats& st) {
  Tracer& tracer = ctx.tracer;
  tracer.setEnabled(traced);
  const std::string ckptDir = dir + "/ckpt";
  fs::remove_all(dir);
  fs::create_directories(ckptDir);

  std::ostringstream buf;
  dike::telemetry::QuantumStreamWriter writer{
      buf, dike::telemetry::StreamFormat::JsonLines};
  std::unique_ptr<exp::RunSession> session;
  {
    Span setup{tracer, "bench", "bench.supervised_setup"};
    const CpuStopwatch cpu;
    Span s{tracer, "exp", "exp.RunSession"};
    session = std::make_unique<exp::RunSession>(spec);
    session->attachQuantumStream(writer);
    st.clock.setupS.add(nsToS(cpu.elapsedNs()));
  }

  Span pass{tracer, "bench", "bench.supervised_pass"};
  const CpuStopwatch passCpu{CLOCK_PROCESS_CPUTIME_ID};
  std::vector<std::string> checkpoints{""};  // index = quantum
  {
    dike::util::AppendFile stream{dir + "/stream.ndjson.part", true};
    for (;;) {
      Span step{tracer, "exp", "exp.stepQuantum"};
      const bool more = session->stepQuantum();
      const std::int64_t stepNs = step.stop();
      if (!more) break;
      const std::int64_t q = session->quantumIndex();
      {
        Span s{tracer, "telemetry", "telemetry.stream_append"};
        stream.append(buf.view());
        buf.str("");
        stream.flushSync();
      }
      if (traced) {
        st.stepQuantumUs.add(nsToUs(stepNs));
        Span payload{tracer, "ckpt", "ckpt.checkpointPayload"};
        const std::string bytes = session->checkpointPayload();
        st.payloadUs.add(nsToUs(payload.stop()));
      }
      const std::string path =
          ckptDir + "/" + dike::ckpt::checkpointFileName(q);
      Span save{tracer, "ckpt", "ckpt.writeCheckpoint"};
      const CpuStopwatch saveCpu;
      bool saved = true;
      try {
        session->writeCheckpoint(path);
      } catch (const std::exception&) {
        saved = false;
      }
      const std::int64_t saveCpuNs = saveCpu.elapsedNs();
      const std::int64_t saveNs = save.stop();
      ctx.ledger.check(saved,
                       "checkpoint save at quantum " + std::to_string(q));
      checkpoints.push_back(saved ? path : "");
      if (!saved) continue;
      st.saveMs.add(nsToMs(saveCpuNs));
      if (traced) st.writeUs.add(nsToUs(saveNs));
      st.checkpointBytes.add(static_cast<double>(fs::file_size(path)));

      if (q % kRestoreEvery != 0) continue;
      if (tamper) {
        // Flip one payload byte of a copy: the checksum must reject it.
        tamper = false;
        std::string bytes = readFile(path);
        char& victim = bytes[bytes.size() / 2];
        victim = static_cast<char>(victim ^ 0x5A);
        const std::string bad = dir + "/tampered.ckpt";
        dike::util::writeFileAtomic(bad, bytes);
        (void)restoreChecked(ctx, bad, q, "restore of tampered checkpoint");
        continue;
      }
      const std::optional<Timing> restored = restoreChecked(
          ctx, path, q, "restore at quantum " + std::to_string(q));
      if (restored) {
        st.restoreMs.add(nsToMs(restored->cpuNs));
        if (traced) st.restoreTracedUs.add(nsToUs(restored->wallNs));
      }
    }
    Span finish{tracer, "exp", "exp.finish"};
    const std::string report = exp::runMetricsToJson(session->finish()).dump(2);
    stream.append(buf.view());
    buf.str("");
    stream.flushSync();
    finish.stop();
    const std::int64_t passCpuNs = passCpu.elapsedNs();
    st.clock.add(pass.stop(), passCpuNs, traced);

    const sim::StepStats steps = session->machine().stepStats();
    st.ticks = session->machine().now();
    st.leapRatio = static_cast<double>(steps.leapedTicks) /
                   static_cast<double>(std::max<dike::util::Tick>(
                       1, steps.computedTicks + steps.leapedTicks));

    // Resume from the middle and finish: report and stream must match the
    // uninterrupted run byte for byte.
    const std::string stream0 = readFile(dir + "/stream.ndjson.part");
    const std::int64_t mid = static_cast<std::int64_t>(checkpoints.size()) / 2;
    bool same = false;
    if (mid >= 1 && !checkpoints[static_cast<std::size_t>(mid)].empty()) {
      try {
        std::ostringstream resumedBuf;
        dike::telemetry::QuantumStreamWriter resumedWriter{
            resumedBuf, dike::telemetry::StreamFormat::JsonLines};
        Span span{tracer, "ckpt", "ckpt.restore"};
        const CpuStopwatch cpu;
        const auto resumed = exp::RunSession::restore(
            checkpoints[static_cast<std::size_t>(mid)], &resumedWriter);
        st.restoreMs.add(nsToMs(cpu.elapsedNs()));
        const std::int64_t ns = span.stop();
        if (traced) st.restoreTracedUs.add(nsToUs(ns));
        Span rest{tracer, "exp", "exp.finish"};
        while (resumed->stepQuantum()) {
        }
        const std::string resumedReport =
            exp::runMetricsToJson(resumed->finish()).dump(2);
        rest.stop();
        same = resumedReport == report &&
               std::string{firstLines(stream0, mid)} + resumedBuf.str() ==
                   stream0;
      } catch (const std::exception&) {
        same = false;
      }
    }
    ctx.ledger.check(same, "resumed run differs from the uninterrupted one");
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------- workloads

enum class Kind { Sweep, Decide, Supervised };

/// Each workload by the pass kind of its main traffic.
const std::map<std::string_view, Kind> kWorkloads{
    {"paper_eval", Kind::Sweep},
    {"cluster_4096", Kind::Decide},
    {"ckpt_supervised", Kind::Supervised},
};

/// Closed loop of main passes: runs for the requested seconds of main
/// traffic, then on until `enough()` holds (at least three untraced passes,
/// and two traced ones in the traced run), never starting a pass once
/// kMaxMainSeconds of main traffic ran. The traced run alternates untraced
/// and traced passes so the two wall times compare like for like.
/// `between` runs after every pass with the share of the requested
/// seconds done so far, and is not counted as main traffic.
void closedLoop(const Options& opts, const std::function<void(bool)>& pass,
                const std::function<bool()>& enough, const PassClock& clock,
                const std::function<void(double)>& between) {
  double mainSeconds = 0.0;
  for (int i = 0;; ++i) {
    const bool passesOk = clock.wallS.size() >= 3 &&
                          (!opts.trace || clock.wallTracedS.size() >= 2);
    if (mainSeconds >= kMaxMainSeconds && passesOk) break;
    if (mainSeconds >= opts.seconds && passesOk && enough()) break;
    const std::int64_t start = nowNs();
    pass(opts.trace && i % 2 == 1);
    mainSeconds += nsToS(nowNs() - start);
    between(mainSeconds / opts.seconds);
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

RunReport runWorkload(const Options& opts, Tracer& tracer) {
  const auto workload = kWorkloads.find(opts.workload);
  if (workload == kWorkloads.end())
    throw std::invalid_argument{"unknown workload: " + opts.workload};
  const Kind mainKind = workload->second;

  Ledger ledger;
  Context ctx{opts, tracer, ledger};
  SweepStats sweep;
  DecideStats decide;
  SupervisedStats supervised;

  // Main shapes and probe shapes.
  const std::vector<exp::RunSpec> sweepSpecs = mainKind == Kind::Sweep
                                                   ? paperSweepSpecs(opts.seed)
                                                   : probeSweepSpecs(opts.seed);
  const std::vector<exp::RunSpec> decideSpecs =
      mainKind == Kind::Decide
          ? std::vector<exp::RunSpec>{cluster4096Spec(opts.seed, opts.jobs)}
          : decideProbeSpecs(opts.seed, kDecideProbeRuns);
  const int decideQuanta =
      mainKind == Kind::Decide ? kClusterPassQuanta : kDecideProbeQuanta;
  const std::vector<exp::RunSpec> supervisedSpecs =
      mainKind == Kind::Supervised
          ? std::vector<exp::RunSpec>{supervisedSpec(opts.seed)}
          : supervisedProbeSpecs(opts.seed, kSupervisedProbeRuns);
  std::size_t decidePasses = 0;
  std::size_t supervisedPasses = 0;
  bool tamper = opts.tamper;
  auto runSweep = [&](bool traced) {
    sweepPass(ctx, sweepSpecs, traced, sweep);
  };
  auto runDecide = [&](bool traced) {
    decidePassChecked(ctx, decideSpecs, decidePasses++, decideQuanta, traced,
                      decide);
  };
  auto runSupervised = [&](bool traced) {
    const std::size_t i = supervisedPasses++;
    supervisedPass(ctx, supervisedSpecs[i % supervisedSpecs.size()],
                   opts.workDir + "/supervised-" + std::to_string(i), traced,
                   std::exchange(tamper, false), supervised);
  };
  auto decideSamples = [&] {
    return decide.decideUs.size() + decide.decideTracedUs.size();
  };

  // Control probes do fixed work — one sweep pass, one decide pass per
  // decide spec, one supervised pass per supervised spec — so the mix of
  // work behind a probe cell never depends on timing. Traced in the traced
  // run, they interleave with the main passes in step with the main
  // traffic's progress, so their samples spread over the run as its do.
  const std::map<Kind, std::function<void(bool)>> runKind{
      {Kind::Sweep, runSweep},
      {Kind::Decide, runDecide},
      {Kind::Supervised, runSupervised},
  };
  std::map<Kind, std::size_t> probePasses{
      {Kind::Sweep, 1},
      {Kind::Decide, decideSpecs.size()},
      {Kind::Supervised, supervisedSpecs.size()},
  };
  probePasses.erase(mainKind);
  std::map<Kind, std::size_t> probePassesRun;
  std::map<Kind, double> probeSeconds;
  auto interleave = [&](double progress) {
    for (const auto& [kind, total] : probePasses) {
      std::size_t& done = probePassesRun[kind];
      while (done < total && static_cast<double>(done) <
                                 progress * static_cast<double>(total)) {
        ++done;
        const std::int64_t start = nowNs();
        runKind.at(kind)(opts.trace);
        probeSeconds[kind] += nsToS(nowNs() - start);
      }
    }
  };
  // Sample targets: untraced samples behind the end-to-end metrics, and in
  // the traced run traced ones behind the per-layer p99s as well.
  auto enough = [&] {
    switch (mainKind) {
      case Kind::Decide:
        return decide.decideUs.size() >= opts.tailSamples &&
               (!opts.trace ||
                decide.decideTracedUs.size() >= opts.tailSamples);
      case Kind::Supervised:
        return supervised.saveMs.size() >= opts.tailSamples &&
               (!opts.trace || supervised.writeUs.size() >= opts.tailSamples);
      case Kind::Sweep: break;
    }
    return true;
  };
  const PassClock& mainClock = mainKind == Kind::Sweep    ? sweep.clock
                               : mainKind == Kind::Decide ? decide.clock
                                                          : supervised.clock;
  closedLoop(opts, runKind.at(mainKind), enough, mainClock, interleave);
  interleave(1.0);
  if (opts.trace)
    decideTwins(ctx, decideSpecs, decideQuanta,
                withDecideJobs(supervisedSpec(opts.seed), opts.jobs), decide);
  tracer.setEnabled(false);

  RunReport report;
  auto put = [&](std::string name, double value, std::string unit) {
    report.metrics.emplace_back(std::move(name),
                                Metric{value, std::move(unit)});
  };
  constexpr double kMiB = 1024.0 * 1024.0;
  if (!opts.trace) {
    put("setup_s", mainClock.setupS.median(), "s");
    put("cpu_s", mainClock.cpuS.median(), "s");
    put("peak_rss_mb", peakRssMb(), "MB");
    put("dike_fairness_gm", sweep.fairnessGm, "ratio");
    put("dike_speedup_gm", sweep.speedupGm, "ratio");
    put("decide_cpu_p50_us", decide.decideUs.percentile(0.5), "us");
    put("ckpt_save_cpu_p50_ms", supervised.saveMs.percentile(0.5), "ms");
    put("resume_cpu_ms", supervised.restoreMs.median(), "ms");
    put("ckpt_mb", supervised.checkpointBytes.median() / kMiB, "MB");
  } else {
    put("wall_s", mainClock.wallS.median(), "s");
    put("sim.step_us.p50", decide.stepUs.percentile(0.5), "us");
    put("sim.step_us.p99", decide.stepUs.percentile(0.99), "us");
    put("sim.sample_us.p50", decide.sampleUs.percentile(0.5), "us");
    const bool leapFromSession = mainKind == Kind::Supervised;
    put("sim.leap_ratio",
        leapFromSession ? supervised.leapRatio : decide.first.leapRatio,
        "ratio");
    put("sim.ticks",
        static_cast<double>(leapFromSession ? supervised.ticks
                                            : decide.first.ticks),
        "count");
    put("core.decide_wall_us.p50", decide.decideWallNsUs.percentile(0.5),
        "us");
    put("core.decide_wall_us.p99", decide.decideWallNsUs.percentile(0.99),
        "us");
    put("core.plan_max_us.p50", decide.planMaxUs.percentile(0.5), "us");
    put("core.scatter_us.p50", decide.scatterUs.percentile(0.5), "us");
    const dike::core::DecisionTotals& totals = decide.acting.totals;
    put("core.pairs_considered", static_cast<double>(totals.pairsConsidered),
        "count");
    put("core.swaps", static_cast<double>(totals.swapsExecuted), "count");
    put("core.swap_accept_ratio",
        ratio(static_cast<double>(totals.swapsExecuted),
              static_cast<double>(totals.pairsConsidered)),
        "ratio");
    put("core.rebalance_moves",
        static_cast<double>(decide.acting.rebalanceMoves), "count");
    put("util.pool.queue_wait_ms.p50", sweep.queueWaitMs.percentile(0.5), "ms");
    put("util.pool.queue_wait_ms.p99", sweep.queueWaitMs.percentile(0.99),
        "ms");
    put("util.pool.busy_share", ratio(sweep.busyNs, sweep.capacityNs), "ratio");
    // Wall decide p50 at one job over the p50 at the pool's jobs; the
    // twins ran at whichever count the spec's own passes did not.
    const Samples& own = decide.decideWallUs.empty() ? decide.decideTracedUs
                                                     : decide.decideWallUs;
    const bool ownSerial =
        decideSpecs.front().dikeConfig->cluster.decideJobs == 1;
    put("util.pool.decide_speedup",
        ownSerial ? ratio(own.median(), decide.twinDecideWallUs.median())
                  : ratio(decide.twinDecideWallUs.median(), own.median()),
        "ratio");
    put("exp.run_ms.p50", sweep.runMs.percentile(0.5), "ms");
    put("exp.run_ms.p99", sweep.runMs.percentile(0.99), "ms");
    for (const SchedulerKind kind : exp::allSchedulerKinds()) {
      const std::string name{exp::toString(kind)};
      put("exp.run_ms." + name + ".p50", sweep.runMsByKind[name].median(),
          "ms");
    }
    put("exp.step_quantum_us.p50", supervised.stepQuantumUs.percentile(0.5),
        "us");
    const double payloadP50 = supervised.payloadUs.percentile(0.5);
    const double writeP50 = supervised.writeUs.percentile(0.5);
    put("ckpt.payload_us.p50", payloadP50, "us");
    put("ckpt.payload_us.p99", supervised.payloadUs.percentile(0.99), "us");
    put("ckpt.write_us.p50", writeP50, "us");
    put("ckpt.write_us.p99", supervised.writeUs.percentile(0.99), "us");
    put("ckpt.io_us", writeP50 - payloadP50, "us");
    put("ckpt.restore_us.p50", supervised.restoreTracedUs.median(), "us");
    put("ckpt.bytes", supervised.checkpointBytes.median(), "bytes");
    const double tracedShare =
        ratio(mainClock.wallTracedS.median(), mainClock.wallS.median());
    put("trace.overhead_pct", 100.0 * (tracedShare - 1.0), "%");
    const std::map<std::string_view, double> self = tracer.selfTimeNs();
    double total = 0.0;
    for (const auto& [layer, ns] : self) total += ns;
    for (const std::string_view layer : kLayers) {
      const auto it = self.find(layer);
      put("layer." + std::string{layer} + ".self_share",
          ratio(it == self.end() ? 0.0 : it->second, total), "ratio");
    }
  }

  std::ostringstream note;
  note << "samples: main passes " << mainClock.wallS.size() << " untraced + "
       << mainClock.wallTracedS.size() << " traced; decide quanta "
       << decideSamples() << "; checkpoint saves " << supervised.saveMs.size()
       << "; restores " << supervised.restoreMs.size() << "; sweep runs/pass "
       << sweepSpecs.size();
  report.notes.push_back(note.str());
  std::ostringstream time;
  time << "host seconds: setup " << mainClock.setupS.sum() << ", main "
       << mainClock.wallS.sum() + mainClock.wallTracedS.sum();
  for (const auto& [kind, seconds] : probeSeconds)
    time << ", probe " << (kind == Kind::Sweep    ? "sweep"
                           : kind == Kind::Decide ? "decide"
                                                  : "supervised")
         << " " << seconds;
  report.notes.push_back(time.str());
  report.attempted = ledger.attempted;
  report.failed = ledger.failed;
  report.failures = ledger.failures;
  return report;
}

}  // namespace perfbench
