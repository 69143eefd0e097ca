// Per-quantum metrics stream: CSV/NDJSON serialisation, schema stability,
// determinism across identical runs, and leap-equivalence of the stream.
#include "telemetry/quantum_stream.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "exp/runner.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace telemetry = dike::telemetry;

namespace {

telemetry::QuantumRecord sampleRecord() {
  telemetry::QuantumRecord record;
  record.tick = 500;
  record.quantumIndex = 0;
  record.scheduler = "dike";
  record.unfairness = 0.25;
  record.workloadClass = "balanced";
  record.quantaLengthMs = 500;
  record.swapSize = 8;
  record.swapsExecuted = 2;
  record.migrationsExecuted = 1;
  telemetry::QuantumThreadRecord t;
  t.threadId = 3;
  t.processId = 0;
  t.coreId = 17;
  t.accessRate = 1.5e6;
  t.llcMissRatio = 0.4;
  t.coreAchievedBw = 2.0e6;
  t.coreBwEstimate = std::numeric_limits<double>::quiet_NaN();
  t.highBandwidthCore = 1;
  t.predictedRate = 1.4e6;
  t.realizedRate = 1.5e6;
  t.predictionError = -0.0667;
  record.threads.push_back(t);
  return record;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(QuantumStream, FormatFollowsExtension) {
  EXPECT_EQ(telemetry::streamFormatForPath("out.csv"),
            telemetry::StreamFormat::Csv);
  EXPECT_EQ(telemetry::streamFormatForPath("out.jsonl"),
            telemetry::StreamFormat::JsonLines);
  EXPECT_EQ(telemetry::streamFormatForPath("dir.jsonl/out.ndjson"),
            telemetry::StreamFormat::JsonLines);
  EXPECT_EQ(telemetry::streamFormatForPath("out"),
            telemetry::StreamFormat::Csv);
}

TEST(QuantumStream, CsvHeaderMatchesColumnContract) {
  std::ostringstream out;
  telemetry::QuantumStreamWriter writer{out, telemetry::StreamFormat::Csv};
  writer.write(sampleRecord());

  std::istringstream lines{out.str()};
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(dike::util::parseCsvLine(header),
            telemetry::QuantumStreamWriter::csvColumns());

  std::string row;
  ASSERT_TRUE(std::getline(lines, row));
  const std::vector<std::string> cells = dike::util::parseCsvLine(row);
  ASSERT_EQ(cells.size(),
            telemetry::QuantumStreamWriter::csvColumns().size());
  EXPECT_EQ(cells[0], "500");   // tick
  EXPECT_EQ(cells[2], "dike");  // scheduler
  EXPECT_EQ(cells[3], "3");     // thread
}

TEST(QuantumStream, NanSerialisesAsEmptyCsvCellAndJsonNull) {
  const telemetry::QuantumRecord record = sampleRecord();

  std::ostringstream csv;
  telemetry::QuantumStreamWriter csvWriter{csv, telemetry::StreamFormat::Csv};
  csvWriter.write(record);
  std::istringstream lines{csv.str()};
  std::string header, row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  const std::vector<std::string>& columns =
      telemetry::QuantumStreamWriter::csvColumns();
  const std::vector<std::string> cells = dike::util::parseCsvLine(row);
  const auto column = [&columns](const std::string& name) {
    for (std::size_t i = 0; i < columns.size(); ++i)
      if (columns[i] == name) return i;
    throw std::runtime_error{"missing column " + name};
  };
  EXPECT_TRUE(cells[column("core_bw_estimate")].empty())
      << "NaN must become an empty CSV cell";
  EXPECT_FALSE(cells[column("predicted_rate")].empty());

  std::ostringstream jsonl;
  telemetry::QuantumStreamWriter jsonWriter{jsonl,
                                            telemetry::StreamFormat::JsonLines};
  jsonWriter.write(record);
  const dike::util::JsonValue doc = dike::util::parseJson(jsonl.str());
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.intOr("tick", -1), 500);
  const auto threads = doc.get("threads");
  ASSERT_TRUE(threads.has_value() && threads->isArray());
  ASSERT_EQ(threads->asArray().size(), 1u);
  const dike::util::JsonValue& thread = threads->asArray().front();
  EXPECT_TRUE(thread.get("core_bw_estimate")->isNull())
      << "NaN must become a JSON null";
  EXPECT_NEAR(thread.numberOr("predicted_rate", 0.0), 1.4e6, 1.0);
}

TEST(QuantumStream, FileWriterRejectsUnwritablePath) {
  EXPECT_THROW(
      telemetry::QuantumStreamFile{"/nonexistent-dir/deep/qm.csv"},
      std::runtime_error);
}

// --- end-to-end: the stream a real run produces -------------------------

dike::exp::RunSpec streamSpec(const std::string& qmPath, bool leaping = true) {
  dike::exp::RunSpec spec;
  spec.workloadId = 2;
  spec.kind = dike::exp::SchedulerKind::Dike;
  spec.scale = 0.05;
  spec.seed = 42;
  spec.machine.tickLeaping = leaping;
  spec.telemetry.quantumMetricsPath = qmPath;
  return spec;
}

TEST(QuantumStream, RunProducesSchemaConformingRows) {
  const std::string path = ::testing::TempDir() + "qs_run.csv";
  (void)dike::exp::runWorkload(streamSpec(path));

  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  const std::vector<std::string>& columns =
      telemetry::QuantumStreamWriter::csvColumns();
  ASSERT_EQ(dike::util::parseCsvLine(header), columns);
  const auto column = [&columns](const std::string& name) {
    for (std::size_t i = 0; i < columns.size(); ++i)
      if (columns[i] == name) return i;
    throw std::runtime_error{"missing column " + name};
  };

  int rows = 0;
  int rowsWithPrediction = 0;
  std::int64_t lastTick = -1;
  for (std::string line; std::getline(in, line);) {
    const std::vector<std::string> cells = dike::util::parseCsvLine(line);
    ASSERT_EQ(cells.size(), columns.size()) << "row " << rows;
    const std::int64_t tick = std::stoll(cells[column("tick")]);
    EXPECT_GE(tick, lastTick) << "ticks must be non-decreasing";
    lastTick = tick;
    EXPECT_EQ(cells[column("scheduler")], "dike");
    EXPECT_FALSE(cells[column("access_rate")].empty());
    if (!cells[column("predicted_rate")].empty()) {
      ++rowsWithPrediction;
      EXPECT_FALSE(cells[column("realized_rate")].empty())
          << "a scored prediction always carries its realised rate";
    }
    ++rows;
  }
  EXPECT_GT(rows, 0);
  EXPECT_GT(rowsWithPrediction, 0)
      << "Dike runs must stream predicted vs realised rates";
}

TEST(QuantumStream, RunPopulatesSlowdownAndFairnessSpreadColumns) {
  const std::string path = ::testing::TempDir() + "qs_slowdown.csv";
  (void)dike::exp::runWorkload(streamSpec(path));

  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  const std::vector<std::string>& columns =
      telemetry::QuantumStreamWriter::csvColumns();
  const auto column = [&columns](const std::string& name) {
    for (std::size_t i = 0; i < columns.size(); ++i)
      if (columns[i] == name) return i;
    throw std::runtime_error{"missing column " + name};
  };
  int slowdownRows = 0;
  int spreadRows = 0;
  int rows = 0;
  for (std::string line; std::getline(in, line);) {
    const std::vector<std::string> cells = dike::util::parseCsvLine(line);
    ++rows;
    if (!cells[column("slowdown")].empty()) {
      const double sd = std::stod(cells[column("slowdown")]);
      EXPECT_GE(sd, 1.0) << "the front-runner defines slowdown 1";
      ++slowdownRows;
    }
    if (!cells[column("fairness_spread")].empty()) {
      EXPECT_GE(std::stod(cells[column("fairness_spread")]), 1.0);
      ++spreadRows;
    }
  }
  EXPECT_GT(rows, 0);
  EXPECT_GT(slowdownRows, 0)
      << "multi-thread processes must report per-thread slowdowns";
  EXPECT_GT(spreadRows, 0);
}

// Clustered Dike keeps its Observer and predictor in the per-cluster
// instances; the record must still carry their facts — the fairness
// signal, the CoreBW partition and the scored predictions.
TEST(QuantumStream, ClusteredRunCarriesDikesFacts) {
  const std::string path = ::testing::TempDir() + "qs_clustered.ndjson";
  dike::exp::RunSpec spec = streamSpec(path);
  spec.scale = 0.1;
  spec.threadsPerApp = 6;
  for (int s = 0; s < 4; ++s) {
    const bool fast = s % 2 == 0;
    spec.topology.push_back({8, 1, fast ? 2.33 : 1.21,
                             fast ? dike::sim::CoreType::Fast
                                  : dike::sim::CoreType::Slow});
  }
  spec.dikeConfig.emplace().cluster.clusters = 4;
  (void)dike::exp::runWorkload(spec);

  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  int records = 0;
  int unfairRecords = 0;
  int highBwRows = 0;
  int predictedRows = 0;
  for (std::string line; std::getline(in, line); ++records) {
    const dike::util::JsonValue doc = dike::util::parseJson(line);
    EXPECT_EQ(doc.stringOr("scheduler", ""), "dike-clustered");
    const double unfairness = doc.numberOr("unfairness", 0.0);
    if (std::isfinite(unfairness) && unfairness != 0.0) ++unfairRecords;
    const dike::util::JsonValue threads = *doc.get("threads");
    for (const dike::util::JsonValue& t : threads.asArray()) {
      if (!t.get("high_bw_core")->isNull()) ++highBwRows;
      if (!t.get("predicted_rate")->isNull()) ++predictedRows;
    }
  }
  ASSERT_GT(records, 0);
  EXPECT_GT(unfairRecords, 0) << "no record carries the fairness signal";
  EXPECT_GT(highBwRows, 0) << "no thread row carries a CoreBW partition";
  EXPECT_GT(predictedRows, 0) << "no thread row carries a prediction";
}

TEST(QuantumStream, IdenticalRunsProduceIdenticalStreams) {
  const std::string a = ::testing::TempDir() + "qs_det_a.csv";
  const std::string b = ::testing::TempDir() + "qs_det_b.csv";
  (void)dike::exp::runWorkload(streamSpec(a));
  (void)dike::exp::runWorkload(streamSpec(b));
  const std::string bytesA = slurp(a);
  ASSERT_FALSE(bytesA.empty());
  EXPECT_EQ(bytesA, slurp(b));
}

TEST(QuantumStream, TickLeapingDoesNotChangeTheStream) {
  const std::string leap = ::testing::TempDir() + "qs_leap.csv";
  const std::string step = ::testing::TempDir() + "qs_step.csv";
  (void)dike::exp::runWorkload(streamSpec(leap, /*leaping=*/true));
  (void)dike::exp::runWorkload(streamSpec(step, /*leaping=*/false));
  const std::string leapBytes = slurp(leap);
  ASSERT_FALSE(leapBytes.empty());
  EXPECT_EQ(leapBytes, slurp(step))
      << "event-batched stepping must be observationally equivalent";
}

}  // namespace
