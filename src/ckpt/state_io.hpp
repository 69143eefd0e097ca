// Field lists for the util-layer stateful types (RNG streams and statistics
// accumulators). These capture *exact* internal state — raw xoshiro words,
// the Box-Muller spare, Welford accumulators, moving-window running sums —
// because all of it is path dependent: re-deriving any of it from
// observable values would break bit-exact resume. A class lists one of
// these as `ar.io("rng", rng_)`; each becomes a section of its own.
#pragma once

#include "ckpt/fields.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dike::ckpt {

template <class Ar>
void fields(Ar& ar, util::Rng& rng) {
  util::Rng::State s = rng.state();
  ar.io("s0", s.s[0]);
  ar.io("s1", s.s[1]);
  ar.io("s2", s.s[2]);
  ar.io("s3", s.s[3]);
  ar.io("spare", s.spare);
  ar.io("haveSpare", s.haveSpare);
  if constexpr (Ar::kLoading) rng.setState(s);
}

template <class Ar>
void fields(Ar& ar, util::OnlineStats& stats) {
  util::OnlineStats::State s = stats.state();
  ar.io("n", s.n);
  ar.io("mean", s.mean);
  ar.io("m2", s.m2);
  ar.io("min", s.min);
  ar.io("max", s.max);
  if constexpr (Ar::kLoading) stats.setState(s);
}

/// The MovingMean must already be constructed with its configured window —
/// window size is configuration, not state — and the checkpointed window
/// must agree, else the configs differ and the restore refuses. A load
/// decodes the samples straight into the window's storage, which it can
/// size only once the sum that follows them has been read.
template <class Ar>
void fields(Ar& ar, util::MovingMean& mm) {
  ar.expect("window", std::uint64_t{mm.window()});
  std::conditional_t<Ar::kLoading, F64Block, std::span<const double>> samples;
  if constexpr (!Ar::kLoading) samples = mm.samples();
  double sum = mm.rawSum();
  ar.io("samples", samples);
  ar.io("sum", sum);
  if constexpr (Ar::kLoading) {
    if (samples.size() > mm.window())
      throw CheckpointError{"checkpointed MovingMean holds " +
                            std::to_string(samples.size()) +
                            " samples, more than its window of " +
                            std::to_string(mm.window())};
    samples.copyTo(mm.restore(samples.size(), sum));
  }
}

template <class T>
void save(BinWriter& w, std::string_view name, const T& value) {
  Writer{w}.io(name, value);
}

template <class T>
void load(BinReader& r, std::string_view name, T& value) {
  Reader{r}.io(name, value);
}

}  // namespace dike::ckpt
