// perfbench_dike: runs one benchmark workload and prints its metrics.
//
//   perfbench_dike --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--trace-out <file>] [--tamper 1]
//                  [--tail-samples <n>]
//
// Prints the host record and sample counts, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// prints the end-to-end metrics, --trace 1 the per-layer ones and writes
// the span trace as Chrome trace_event JSON to --trace-out. Exit code 0
// whenever a result was printed (failed operations are counted in it, not
// raised); 2 on bad arguments or an internal error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "exp/chrome_trace.hpp"
#include "measure.hpp"
#include "util/json.hpp"
#include "util/task_pool.hpp"
#include "workloads.hpp"

namespace {

std::map<std::string, std::string> parseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument{"expected --key value pairs, got " + key};
    args[key.substr(2)] = argv[++i];
  }
  return args;
}

std::string require(const std::map<std::string, std::string>& args,
                    const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::invalid_argument{"missing --" + key};
  return it->second;
}

/// Write the trace and check it with the validator dike_trace uses.
bool writeTrace(const perfbench::Tracer& tracer, const std::string& path,
                const dike::util::JsonValue& host) {
  const dike::util::JsonValue trace = tracer.chromeTrace(host);
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << trace.dump() << "\n";
    if (!out) return false;
  }
  const auto errors = dike::exp::validateChromeTrace(trace);
  for (const std::string& e : errors) std::cerr << "trace: " << e << "\n";
  return errors.empty();
}

}  // namespace

int main(int argc, char** argv) try {
  const auto args = parseArgs(argc, argv);
  perfbench::Options opts;
  opts.workload = require(args, "workload");
  opts.seed = std::stoull(require(args, "seed"));
  opts.seconds = std::stod(require(args, "seconds"));
  opts.trace = require(args, "trace") == "1";
  opts.workDir = require(args, "work-dir");
  opts.tracePath = args.contains("trace-out") ? args.at("trace-out") : "";
  opts.tamper = args.contains("tamper") && args.at("tamper") == "1";
  if (args.contains("tail-samples"))
    opts.tailSamples = std::stoul(args.at("tail-samples"));
  opts.jobs = dike::util::TaskPool::shared().jobs();
  if (opts.seconds <= 0.0) throw std::invalid_argument{"--seconds must be > 0"};

  const perfbench::HostRecord host =
      perfbench::describeHost(opts.seed, opts.jobs);
  if (!host.optimisedBuild())
    std::cerr << "warning: build type '" << host.buildType
              << "' is not optimised; timings are not comparable\n";
  std::filesystem::create_directories(opts.workDir);

  perfbench::Tracer tracer;
  perfbench::RunReport report = perfbench::runWorkload(opts, tracer);
  if (opts.trace) {
    ++report.attempted;
    if (opts.tracePath.empty() ||
        !writeTrace(tracer, opts.tracePath, host.json())) {
      ++report.failed;
      report.failures.push_back("trace export or validation failed");
    } else {
      report.notes.push_back("trace: " + opts.tracePath + " (" +
                             std::to_string(tracer.spans().size()) + " spans)");
    }
  }
  std::filesystem::remove_all(opts.workDir);

  for (const std::string& f : report.failures)
    std::cerr << "failed: " << f << "\n";
  std::cout << "# workload " << opts.workload << "\n# host "
            << host.json().dump() << "\n";
  for (const std::string& note : report.notes)
    std::cout << "# " << note << "\n";
  std::cout << perfbench::resultLine(report.failed == 0, report.attempted,
                                     report.failed, report.metrics)
            << std::endl;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perfbench_dike: " << e.what() << "\n";
  return 2;
}
