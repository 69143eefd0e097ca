#include "telemetry/quantum_stream.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/json.hpp"

namespace dike::telemetry {

namespace {

/// Deterministic shortest-ish representation; empty for NaN (CSV) — the
/// stream must be byte-identical across repeated runs of the same build.
/// Formats into a caller-owned buffer so row emission reuses capacity.
const std::string& formatDouble(std::string& buf, double v) {
  if (std::isnan(v)) {
    buf.clear();
    return buf;
  }
  char tmp[40];
  const int n = std::snprintf(tmp, sizeof tmp, "%.12g", v);
  buf.assign(tmp, static_cast<std::size_t>(n));
  return buf;
}

void appendNumberOrNull(std::string& out, double v) {
  if (std::isnan(v))
    out += "null";
  else
    util::appendJsonNumber(out, v);
}

}  // namespace

StreamFormat streamFormatForPath(std::string_view path) {
  const auto dot = path.rfind('.');
  if (dot == std::string_view::npos) return StreamFormat::Csv;
  const std::string_view ext = path.substr(dot);
  if (ext == ".jsonl" || ext == ".ndjson") return StreamFormat::JsonLines;
  return StreamFormat::Csv;
}

QuantumStreamWriter::QuantumStreamWriter(std::ostream& out,
                                         StreamFormat format)
    : out_(&out), format_(format) {}

const std::vector<std::string>& QuantumStreamWriter::csvColumns() {
  static const std::vector<std::string> columns{
      "tick",           "quantum",        "scheduler",
      "thread",         "process",        "core",
      "high_bw_core",   "access_rate",    "llc_miss_ratio",
      "core_achieved_bw", "core_bw_estimate", "predicted_rate",
      "realized_rate",  "prediction_error", "slowdown",
      "unfairness",     "fairness_spread",
      "workload_class", "quanta_length_ms", "swap_size",
      "swaps_executed", "migrations_executed"};
  return columns;
}

void QuantumStreamWriter::write(const QuantumRecord& record) {
  if (format_ == StreamFormat::Csv)
    writeCsv(record);
  else
    writeJsonLine(record);
  ++records_;
}

void QuantumStreamWriter::writeCsv(const QuantumRecord& record) {
  util::CsvWriter csv{*out_};
  if (!headerWritten_) {
    csv.header(csvColumns());
    headerWritten_ = true;
  }
  for (const QuantumThreadRecord& t : record.threads) {
    csv.row(static_cast<long long>(record.tick),
            static_cast<long long>(record.quantumIndex), record.scheduler,
            t.threadId, t.processId, t.coreId, t.highBandwidthCore,
            formatDouble(fmt_[0], t.accessRate),
            formatDouble(fmt_[1], t.llcMissRatio),
            formatDouble(fmt_[2], t.coreAchievedBw),
            formatDouble(fmt_[3], t.coreBwEstimate),
            formatDouble(fmt_[4], t.predictedRate),
            formatDouble(fmt_[5], t.realizedRate),
            formatDouble(fmt_[6], t.predictionError),
            formatDouble(fmt_[7], t.slowdown),
            formatDouble(fmt_[8], record.unfairness),
            formatDouble(fmt_[9], record.fairnessSpread),
            record.workloadClass, record.quantaLengthMs, record.swapSize,
            static_cast<long long>(record.swapsExecuted),
            static_cast<long long>(record.migrationsExecuted));
  }
}

void QuantumStreamWriter::writeJsonLine(const QuantumRecord& record) {
  // The line util::JsonValue::dump would print for the record as an object:
  // keys in std::map (alphabetical) order, numbers and strings through the
  // same appenders, NaN as null. Appended directly into a reused buffer
  // instead of building a map per thread row.
  std::string& s = line_;
  s.clear();
  s += "{\"fairness_spread\":";
  appendNumberOrNull(s, record.fairnessSpread);
  s += ",\"migrations_executed\":";
  util::appendJsonNumber(s, static_cast<double>(record.migrationsExecuted));
  s += ",\"quanta_length_ms\":";
  util::appendJsonNumber(s, record.quantaLengthMs);
  s += ",\"quantum\":";
  util::appendJsonNumber(s, static_cast<double>(record.quantumIndex));
  s += ",\"scheduler\":";
  util::appendJsonString(s, record.scheduler);
  s += ",\"swap_size\":";
  util::appendJsonNumber(s, record.swapSize);
  s += ",\"swaps_executed\":";
  util::appendJsonNumber(s, static_cast<double>(record.swapsExecuted));
  s += ",\"threads\":[";
  bool first = true;
  for (const QuantumThreadRecord& t : record.threads) {
    s += first ? "{\"access_rate\":" : ",{\"access_rate\":";
    first = false;
    appendNumberOrNull(s, t.accessRate);
    s += ",\"core\":";
    util::appendJsonNumber(s, t.coreId);
    s += ",\"core_achieved_bw\":";
    appendNumberOrNull(s, t.coreAchievedBw);
    s += ",\"core_bw_estimate\":";
    appendNumberOrNull(s, t.coreBwEstimate);
    s += ",\"high_bw_core\":";
    s += t.highBandwidthCore < 0    ? "null"
         : t.highBandwidthCore != 0 ? "true"
                                    : "false";
    s += ",\"llc_miss_ratio\":";
    appendNumberOrNull(s, t.llcMissRatio);
    s += ",\"predicted_rate\":";
    appendNumberOrNull(s, t.predictedRate);
    s += ",\"prediction_error\":";
    appendNumberOrNull(s, t.predictionError);
    s += ",\"process\":";
    util::appendJsonNumber(s, t.processId);
    s += ",\"realized_rate\":";
    appendNumberOrNull(s, t.realizedRate);
    s += ",\"slowdown\":";
    appendNumberOrNull(s, t.slowdown);
    s += ",\"thread\":";
    util::appendJsonNumber(s, t.threadId);
    s += '}';
  }
  s += "],\"tick\":";
  util::appendJsonNumber(s, static_cast<double>(record.tick));
  s += ",\"unfairness\":";
  appendNumberOrNull(s, record.unfairness);
  s += ",\"workload_class\":";
  if (record.workloadClass.empty())
    s += "null";
  else
    util::appendJsonString(s, record.workloadClass);
  s += "}\n";
  out_->write(s.data(), static_cast<std::streamsize>(s.size()));
}

QuantumStreamFile::QuantumStreamFile(const std::string& path)
    : file_(path, std::ios::out | std::ios::trunc) {
  if (!file_)
    throw std::runtime_error{"cannot write quantum metrics stream: " + path};
  writer_ = std::make_unique<QuantumStreamWriter>(file_,
                                                  streamFormatForPath(path));
}

}  // namespace dike::telemetry
