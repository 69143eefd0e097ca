// Figure 2: fairness and performance of the optimal, default <8,500> and
// worst Dike scheduler configurations for selected workloads, normalised to
// the best configuration — the motivation for adaptive parameter tuning.
#include "common.hpp"

#include "exp/sweep.hpp"
#include "workload/workloads.hpp"

namespace {

using dike::bench::BenchOptions;
using dike::exp::SweepExtremes;

void runFigure2(const BenchOptions& opts) {
  std::printf(
      "=== Figure 2: optimal vs default vs worst configuration ===\n");
  dike::util::TextTable table{{"workload", "metric", "optimal", "default",
                               "worst", "optimal-config", "worst-config"}};

  // One workload per class, as the paper's "selective workloads".
  for (const int workloadId : {2, 7, 13}) {
    const auto sweep =
        dike::exp::sweepConfigs(workloadId, opts.scale, opts.seed);
    const SweepExtremes e = dike::exp::findExtremes(sweep);
    const std::string name = dike::wl::workload(workloadId).name;

    auto configLabel = [](const dike::core::DikeParams& p) {
      std::string label{"<"};
      label.append(std::to_string(p.swapSize))
          .append(",")
          .append(std::to_string(p.quantaLengthMs))
          .append(">");
      return label;
    };

    table.newRow()
        .cell(name)
        .cell("fairness")
        .cell(1.0, 3)
        .cell(e.defaultConfig.fairness / e.bestFairness.fairness, 3)
        .cell(e.worstFairness.fairness / e.bestFairness.fairness, 3)
        .cell(configLabel(e.bestFairness.params))
        .cell(configLabel(e.worstFairness.params));
    table.newRow()
        .cell("")
        .cell("performance")
        .cell(1.0, 3)
        .cell(e.defaultConfig.speedup / e.bestPerformance.speedup, 3)
        .cell(e.worstPerformance.speedup / e.bestPerformance.speedup, 3)
        .cell(configLabel(e.bestPerformance.params))
        .cell(configLabel(e.worstPerformance.params));
    table.separator();
  }
  table.print();
  std::printf(
      "\nPaper reference: poor configurations cost notable fairness and\n"
      "performance, and the optimal configuration differs per workload and\n"
      "per metric — hence the Optimizer.\n");
}

void BM_SweepPoint(benchmark::State& state) {
  for (auto _ : state) {
    dike::exp::RunSpec spec;
    spec.workloadId = 2;
    spec.kind = dike::exp::SchedulerKind::Dike;
    spec.params = dike::core::DikeParams{4, 200};
    spec.scale = 0.25;
    const dike::exp::RunMetrics m = dike::exp::runWorkload(spec);
    benchmark::DoNotOptimize(m.fairness);
  }
}
BENCHMARK(BM_SweepPoint)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = dike::bench::parseOptions(argc, argv);
  runFigure2(opts);
  if (opts.runGoogleBenchmark) dike::bench::runRegisteredBenchmarks(argv[0]);
  return 0;
}
