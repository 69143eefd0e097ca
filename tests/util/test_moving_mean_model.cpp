// MovingMean against a reference model: the std::deque implementation the
// contiguous window replaced, reproduced here verbatim. Every observable
// (value, last, samples, rawSum) must match it bit for bit after every add,
// reset and checkpoint-style restore, because checkpoint bytes and every
// report downstream of the Observer depend on the exact floating-point
// order of the running sum.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/state_io.hpp"
#include "util/stats.hpp"

namespace dike::util {
namespace {

struct DequeModel {
  std::size_t window;
  std::deque<double> samples;
  double sum = 0.0;

  void add(double x) {
    samples.push_back(x);
    sum += x;
    if (samples.size() > window) {
      sum -= samples.front();
      samples.pop_front();
    }
  }
  void reset() {
    samples.clear();
    sum = 0.0;
  }
  [[nodiscard]] double value() const {
    return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
  }
  [[nodiscard]] double last() const {
    return samples.empty() ? 0.0 : samples.back();
  }
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expectSame(const MovingMean& mm, const DequeModel& model,
                const std::string& where) {
  ASSERT_EQ(mm.size(), model.samples.size()) << where;
  EXPECT_EQ(mm.empty(), model.samples.empty()) << where;
  EXPECT_EQ(bits(mm.value()), bits(model.value())) << where;
  EXPECT_EQ(bits(mm.last()), bits(model.last())) << where;
  EXPECT_EQ(bits(mm.rawSum()), bits(model.sum)) << where;
  const std::span<const double> samples = mm.samples();
  for (std::size_t i = 0; i < samples.size(); ++i)
    EXPECT_EQ(bits(samples[i]), bits(model.samples[i]))
        << where << ", sample " << i;
}

TEST(MovingMeanModel, MatchesDequeBitForBit) {
  for (const std::size_t window : {1, 2, 8, 33}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      std::mt19937_64 rng{seed * 1000 + window};
      // Values across many magnitudes, so the running sum carries real
      // add/subtract round-off that a recomputation would not reproduce.
      std::uniform_real_distribution<double> mantissa{-1.0, 1.0};
      std::uniform_int_distribution<int> exponent{-20, 40};
      std::uniform_int_distribution<int> op{0, 99};
      MovingMean mm{window};
      DequeModel model{window, {}};
      for (int step = 0; step < 400; ++step) {
        const int choice = op(rng);
        if (choice < 3) {
          mm.reset();
          model.reset();
        } else if (choice < 10) {
          // Checkpoint round trip: capture the window, rebuild a fresh
          // MovingMean from it, and carry on with the restored one.
          const std::vector<double> captured{mm.samples().begin(),
                                             mm.samples().end()};
          MovingMean restored{window};
          const std::span<double> slots =
              restored.restore(captured.size(), mm.rawSum());
          ASSERT_EQ(slots.size(), captured.size());
          std::copy(captured.begin(), captured.end(), slots.begin());
          mm = std::move(restored);
        } else {
          const double x = std::ldexp(mantissa(rng), exponent(rng));
          mm.add(x);
          model.add(x);
        }
        expectSame(mm, model,
                   "window " + std::to_string(window) + ", seed " +
                       std::to_string(seed) + ", step " +
                       std::to_string(step));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(MovingMeanModel, RestoreRejectsMoreSamplesThanTheWindow) {
  MovingMean mm{4};
  EXPECT_THROW((void)mm.restore(5, 0.0), std::invalid_argument);
  EXPECT_TRUE(mm.empty());
}

TEST(MovingMeanModel, RestoredWindowKeepsEvictingInOrder) {
  MovingMean mm{3};
  const std::span<double> slots = mm.restore(3, 6.0);
  slots[0] = 1.0;
  slots[1] = 2.0;
  slots[2] = 3.0;
  mm.add(10.0);  // evicts 1.0
  ASSERT_EQ(mm.size(), 3u);
  EXPECT_DOUBLE_EQ(mm.samples()[0], 2.0);
  EXPECT_DOUBLE_EQ(mm.last(), 10.0);
  EXPECT_DOUBLE_EQ(mm.rawSum(), 15.0);
}

TEST(MovingMeanModel, CheckpointRoundTripIsBitExact) {
  MovingMean mm{4};
  for (const double x : {0.1, 0.2, 0.3, 1e17, 0.4, 0.5}) mm.add(x);
  ckpt::BinWriter w;
  ckpt::save(w, "mm", mm);
  ckpt::save(w, "empty", MovingMean{4});
  const std::string bytes = w.take();
  ckpt::BinReader r{bytes};
  MovingMean back{4};
  MovingMean empty{4};
  ckpt::load(r, "mm", back);
  ckpt::load(r, "empty", empty);
  r.expectEnd();
  DequeModel model{4, {}};
  model.samples.assign(mm.samples().begin(), mm.samples().end());
  model.sum = mm.rawSum();
  expectSame(back, model, "restored");
  EXPECT_TRUE(empty.empty());
}

// A window holding more samples than its configured size is corruption, and
// must surface as the checkpoint error every restore path catches.
TEST(MovingMeanModel, CheckpointLoadRejectsOverfullWindow) {
  ckpt::BinWriter w;
  w.beginSection("mm");
  w.u64("window", 2);
  const std::vector<double> three{1.0, 2.0, 3.0};
  w.vecF64("samples", three);
  w.f64("sum", 6.0);
  w.endSection();
  const std::string bytes = w.take();
  ckpt::BinReader r{bytes};
  MovingMean mm{2};
  EXPECT_THROW(ckpt::load(r, "mm", mm), ckpt::CheckpointError);
  EXPECT_TRUE(mm.empty());
}

}  // namespace
}  // namespace dike::util
