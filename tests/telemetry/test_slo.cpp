// Fairness SLO monitor: windowed-mean breach detection, transition alerts,
// warmup, decision-trace routing, and loud config parsing.
#include "telemetry/slo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/json.hpp"

namespace telemetry = dike::telemetry;
namespace util = dike::util;

namespace {

telemetry::SloConfig config(double maxSpread, int window, int warmup = 0) {
  telemetry::SloConfig c;
  c.enabled = true;
  c.maxFairnessSpread = maxSpread;
  c.windowQuanta = window;
  c.warmupQuanta = warmup;
  return c;
}

TEST(SloMonitor, NoBreachWhileUnderTarget) {
  telemetry::SloMonitor slo{config(1.25, 4)};
  for (int q = 0; q < 50; ++q) slo.observeFairnessSpread(q, 1.1);
  EXPECT_EQ(slo.breaches(), 0);
  EXPECT_FALSE(slo.inBreach());
  EXPECT_EQ(slo.firstBreachQuantum(), -1);
  EXPECT_NEAR(slo.windowedFairnessSpread(), 1.1, 1e-12);
}

TEST(SloMonitor, DoesNotEvaluateBeforeTheWindowFills) {
  telemetry::SloMonitor slo{config(1.25, 10)};
  for (int q = 0; q < 9; ++q) slo.observeFairnessSpread(q, 5.0);
  EXPECT_EQ(slo.breaches(), 0)
      << "a partial window must not fire (mean is not yet defined)";
  slo.observeFairnessSpread(9, 5.0);
  EXPECT_EQ(slo.breaches(), 1);
  EXPECT_EQ(slo.firstBreachQuantum(), 9);
}

TEST(SloMonitor, BreachAndRecoveryAreSingleTransitions) {
  telemetry::SloMonitor slo{config(1.25, 2)};
  slo.observeFairnessSpread(0, 2.0);
  slo.observeFairnessSpread(1, 2.0);  // window full, mean 2.0 -> breach
  slo.observeFairnessSpread(2, 2.0);  // still in breach: no new transition
  EXPECT_EQ(slo.breaches(), 1);
  EXPECT_TRUE(slo.inBreach());
  slo.observeFairnessSpread(3, 1.0);
  slo.observeFairnessSpread(4, 1.0);  // windowed mean 1.0 -> recovered
  EXPECT_FALSE(slo.inBreach());
  EXPECT_EQ(slo.breaches(), 1) << "recovery is not a breach";
  slo.observeFairnessSpread(5, 3.0);
  slo.observeFairnessSpread(6, 3.0);
  EXPECT_EQ(slo.breaches(), 2) << "re-entering breach counts again";

  const std::vector<telemetry::SloAlertRecord> alerts = slo.alerts();
  ASSERT_EQ(alerts.size(), 3u);  // enter, recover, enter
  EXPECT_TRUE(alerts[0].entered);
  EXPECT_EQ(alerts[0].quantumIndex, 1);
  EXPECT_FALSE(alerts[1].entered);
  EXPECT_TRUE(alerts[2].entered);
}

TEST(SloMonitor, WindowedMeanSlidesOffOldSamples) {
  telemetry::SloMonitor slo{config(1.25, 4)};
  // One outlier inside an otherwise clean window must not breach a mean
  // target of 1.25 (mean = (1.0*3 + 2.0)/4 = 1.25, not > target)...
  for (int q = 0; q < 3; ++q) slo.observeFairnessSpread(q, 1.0);
  slo.observeFairnessSpread(3, 2.0);
  EXPECT_EQ(slo.breaches(), 0);
  // ...and once the outlier slides out, the mean falls back to 1.0.
  for (int q = 4; q < 8; ++q) slo.observeFairnessSpread(q, 1.0);
  EXPECT_FALSE(slo.inBreach());
  EXPECT_NEAR(slo.windowedFairnessSpread(), 1.0, 1e-12);
}

TEST(SloMonitor, WarmupQuantaAreIgnored) {
  telemetry::SloMonitor slo{config(1.25, 2, /*warmup=*/5)};
  for (int q = 0; q < 5; ++q) slo.observeFairnessSpread(q, 9.0);
  EXPECT_EQ(slo.breaches(), 0) << "warmup observations must not evaluate";
  slo.observeFairnessSpread(5, 9.0);
  slo.observeFairnessSpread(6, 9.0);
  EXPECT_EQ(slo.breaches(), 1);
}

TEST(SloMonitor, NanObservationsAreSkipped) {
  telemetry::SloMonitor slo{config(1.25, 2)};
  slo.observeFairnessSpread(0, std::numeric_limits<double>::quiet_NaN());
  slo.observeFairnessSpread(1, 2.0);
  slo.observeFairnessSpread(2, 2.0);
  EXPECT_EQ(slo.breaches(), 1) << "NaN must not poison the window";
}

TEST(SloMonitor, DisabledMonitorObservesNothing) {
  telemetry::SloConfig c = config(1.25, 2);
  c.enabled = false;
  telemetry::SloMonitor slo{c};
  for (int q = 0; q < 10; ++q) slo.observeFairnessSpread(q, 99.0);
  EXPECT_EQ(slo.breaches(), 0);
}

TEST(SloMonitor, PredictionErrorChannelIsIndependentlyTargeted) {
  telemetry::SloConfig c = config(1e9, 2);  // spread target effectively off
  c.maxPredictionAbsError = 0.2;
  telemetry::SloMonitor slo{c};
  slo.observePredictionError(0, 0.5);
  slo.observePredictionError(1, 0.5);
  EXPECT_EQ(slo.breaches(), 1);
  ASSERT_FALSE(slo.alerts().empty());
  EXPECT_EQ(slo.alerts().front().signal, "prediction_abs_error");
}

// --- config parsing ------------------------------------------------------

TEST(SloConfig, ParsesAFullSection) {
  const util::JsonValue doc = util::parseJson(
      R"({"enabled": true, "maxFairnessSpread": 1.5,
          "maxPredictionAbsError": 0.3, "windowQuanta": 32,
          "warmupQuanta": 8})");
  const telemetry::SloConfig c = telemetry::parseSloConfig(doc);
  EXPECT_TRUE(c.enabled);
  EXPECT_DOUBLE_EQ(c.maxFairnessSpread, 1.5);
  EXPECT_DOUBLE_EQ(c.maxPredictionAbsError, 0.3);
  EXPECT_EQ(c.windowQuanta, 32);
  EXPECT_EQ(c.warmupQuanta, 8);
}

TEST(SloConfig, DefaultsSurviveAnEmptySection) {
  const telemetry::SloConfig c =
      telemetry::parseSloConfig(util::parseJson("{}"));
  EXPECT_FALSE(c.enabled);
  EXPECT_DOUBLE_EQ(c.maxFairnessSpread, 1.25);
  EXPECT_EQ(c.windowQuanta, 100);
}

TEST(SloConfig, RejectsMalformedFieldsLoudly) {
  const auto reject = [](const char* json) {
    EXPECT_THROW((void)telemetry::parseSloConfig(util::parseJson(json)),
                 std::runtime_error)
        << json;
  };
  reject(R"({"enabled": "yes"})");
  reject(R"({"maxFairnessSpread": "wide"})");
  reject(R"({"maxFairnessSpread": 0.5})");   // a spread below 1 is impossible
  reject(R"({"windowQuanta": 0})");
  reject(R"({"windowQuanta": 2.5})");
  reject(R"({"warmupQuanta": -1})");
  reject(R"("not an object")");
}

TEST(SloConfig, ToJsonRoundTrips) {
  telemetry::SloConfig c = config(1.4, 64, 16);
  c.maxPredictionAbsError = 0.25;
  const telemetry::SloConfig back =
      telemetry::parseSloConfig(telemetry::toJson(c));
  EXPECT_EQ(back.enabled, c.enabled);
  EXPECT_DOUBLE_EQ(back.maxFairnessSpread, c.maxFairnessSpread);
  EXPECT_DOUBLE_EQ(back.maxPredictionAbsError, c.maxPredictionAbsError);
  EXPECT_EQ(back.windowQuanta, c.windowQuanta);
  EXPECT_EQ(back.warmupQuanta, c.warmupQuanta);
}

}  // namespace
