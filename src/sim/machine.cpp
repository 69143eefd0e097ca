#include "sim/machine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "ckpt/state_io.hpp"
#include "telemetry/live.hpp"
#include "telemetry/registry.hpp"
#include "util/stop.hpp"

namespace dike::sim {

namespace {
constexpr double kEps = 1e-9;

/// Largest number of ticks a quantity growing by `rate` per tick can safely
/// advance while provably staying below `room`, under per-tick floating-point
/// accumulation. Conservative: the margin absorbs worst-case rounding drift
/// of the repeated additions (relative 1e-7 covers horizons up to ~4e8
/// ticks, far beyond any run limit); undershooting only means a few extra
/// per-tick steps near the event, never a missed event.
[[nodiscard]] util::Tick ticksBelow(double room, double rate) {
  if (!(room > rate)) return 0;
  const double est = room / rate;
  if (est >= 1e8) return static_cast<util::Tick>(1e8);
  const auto margin = static_cast<util::Tick>(3.0 + est * 1e-7);
  const auto whole = static_cast<util::Tick>(est);
  return whole > margin ? whole - margin : 0;
}

/// Bitwise equality of two demand vectors (the arbitration memo key).
/// Bit-level comparison, not operator==: distinguishing -0.0 from 0.0 (and
/// never equating NaNs) is what makes "equal demands" imply "bit-identical
/// arbitration output".
[[nodiscard]] bool sameDemands(const std::vector<MemoryDemand>& a,
                               const std::vector<MemoryDemand>& b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].socket != b[i].socket ||
        std::bit_cast<std::uint64_t>(a[i].accesses) !=
            std::bit_cast<std::uint64_t>(b[i].accesses))
      return false;
  }
  return true;
}

/// A non-negative finite double as `units * 2^exp` on the evenly spaced grid
/// of its binade: `exp` is the binade's ulp exponent, and every double from
/// the binade's bottom (0 for the subnormal range, whose spacing the lowest
/// normal binade shares) to its top 2^(exp+53) is a whole number of units,
/// at most kGridTop.
struct GridPoint {
  std::int64_t units = 0;
  int exp = 0;
};
constexpr std::int64_t kGridTop = std::int64_t{1} << 53;

[[nodiscard]] GridPoint gridPoint(double v) noexcept {
  const std::uint64_t bits =
      std::bit_cast<std::uint64_t>(v) & ~(std::uint64_t{1} << 63);
  const auto biased = static_cast<int>(bits >> 52);
  const auto mantissa =
      static_cast<std::int64_t>(bits & ((std::uint64_t{1} << 52) - 1));
  if (biased == 0) return {mantissa, -1074};
  return {mantissa | (std::int64_t{1} << 52), biased - 1075};
}

/// floor(v / 2^exp) for a non-negative finite v, saturated at kGridTop.
[[nodiscard]] std::int64_t unitsBelow(double v, int exp) noexcept {
  const GridPoint p = gridPoint(v);
  const int shift = p.exp - exp;
  // A positive shift means v is normal (units >= 2^52), so >= 2^53 units.
  if (shift > 0) return kGridTop;
  return shift <= -53 ? 0 : p.units >> -shift;
}

[[nodiscard]] bool sameBits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Two SIMD lanes of doubles (SSE2 on x86-64, NEON on AArch64); the
/// baseline ISA, so no -march flag or runtime dispatch is needed.
using DoublePair = double __attribute__((vector_size(2 * sizeof(double))));
/// Threads replayed together: two DoublePairs per accumulator chain.
constexpr std::size_t kLaneGroup = 4;
/// Shortest leap whose cumulative chains take repeatedSum. Below it the
/// additions in lanes are cheaper: repeatedSum costs about as much as 128
/// lane-parallel additions of a chain (Xeon, GCC 12 -O2), and leaps in the
/// 40-thread paper sweep are mostly under 64 ticks.
constexpr util::Tick kClosedFormMinTicks = 128;
}  // namespace

double repeatedSum(double x, double d, std::int64_t n) noexcept {
  const bool finite = std::isfinite(x) && std::isfinite(d);
  // Round-to-nearest-even is sign-symmetric, and sums of same-sign operands
  // with d != 0 are never zero: mirror negative sums onto positive ones.
  if (finite && d < 0.0 && !(x > 0.0)) return -repeatedSum(-x, -d, n);
  const bool gridded = finite && !(x < 0.0) && !(d < 0.0);
  while (n > 0) {
    // q: whole units of x's grid in d. A sum x' + d stays on x's grid
    // exactly when units(x') + q < kGridTop (the fraction of d is < 1 unit).
    const GridPoint g = gridPoint(x);
    const std::int64_t q = gridded ? unitsBelow(d, g.exp) : kGridTop;
    const double y = x + d;
    --n;
    // A repeat of the same addition from the same bits changes nothing.
    if (sameBits(y, x)) return y;
    const std::int64_t yUnits =
        g.units + q < kGridTop ? g.units + unitsBelow(y - x, g.exp) : kGridTop;
    x = y;
    // Crossing a binade (or outside the closed form's domain): real steps.
    if (n == 0 || yUnits + q >= kGridTop) continue;
    // y came from a sum on this grid, so after a half-ulp tie it is even;
    // from here each sum on the grid adds the same increment.
    const double z = y + d;
    --n;
    if (sameBits(z, y)) return z;
    const double inc = z - y;
    const std::int64_t step = unitsBelow(inc, g.exp);
    const std::int64_t zUnits = yUnits + step;
    x = z;
    if (n == 0 || zUnits + q >= kGridTop) continue;
    // Additions j = 0..m-1 from z stay on the grid: zUnits + j*step + q <
    // kGridTop. m * inc is exact, and so is the jump.
    const std::int64_t m =
        std::min(n, (kGridTop - 1 - zUnits - q) / step + 1);
    x += static_cast<double>(m) * inc;
    n -= m;
  }
  return x;
}

Machine::Machine(MachineTopology topology, MachineConfig config)
    : topology_(std::move(topology)),
      config_(config),
      rng_(config.seed),
      coreToThread_(static_cast<std::size_t>(topology_.coreCount()), -1),
      coreQuantumAccesses_(static_cast<std::size_t>(topology_.coreCount()),
                           0.0) {
  physFreqGhz_.resize(static_cast<std::size_t>(topology_.physicalCoreCount()));
  for (const CoreDesc& core : topology_.cores())
    physFreqGhz_[static_cast<std::size_t>(core.physicalCore)] = core.freqGhz;
  if (config_.smtSharedFactor <= 0.0 || config_.smtSharedFactor > 1.0)
    throw std::invalid_argument{"smtSharedFactor must be in (0, 1]"};
  if (config_.migrationStallTicks < 0)
    throw std::invalid_argument{"migrationStallTicks must be >= 0"};
}

int Machine::addProcess(std::string name, PhaseProgram program,
                        int threadCount, bool memoryIntensive) {
  if (threadCount <= 0) throw std::invalid_argument{"threadCount must be > 0"};
  program.validate();

  SimProcess proc;
  proc.id = static_cast<int>(processes_.size());
  proc.name = std::move(name);
  proc.program = std::move(program);
  proc.memoryIntensive = memoryIntensive;
  for (int i = 0; i < threadCount; ++i) {
    SimThread t;
    t.id = static_cast<int>(threads_.size());
    t.processId = proc.id;
    t.indexInProcess = i;
    t.socketConflict.reserve(static_cast<std::size_t>(topology_.socketCount()));
    for (int s = 0; s < topology_.socketCount(); ++s) {
      t.socketConflict.push_back(
          rng_.uniform(1.0 - config_.conflictSpread,
                       1.0 + config_.conflictSpread));
    }
    proc.threadIds.push_back(t.id);
    liveThreads_.push_back(t.id);  // new ids are largest: order stays ascending
    threads_.push_back(t);
    appendHotThread(threads_.back());
  }
  processes_.push_back(std::move(proc));
  for (int id : processes_.back().threadIds) refreshPhaseCache(id);
  llcDirty_ = true;
  return processes_.back().id;
}

void Machine::appendHotThread(const SimThread& t) {
  hot_.executed.push_back(t.executed);
  hot_.phaseExecuted.push_back(t.phaseExecuted);
  hot_.quantumInstructions.push_back(t.quantumInstructions);
  hot_.quantumAccesses.push_back(t.quantumAccesses);
  hot_.totalAccesses.push_back(t.totalAccesses);
  hot_.prevUtilization.push_back(t.prevUtilization);
  hot_.runnableTicks.push_back(t.runnableTicks);
  hot_.stallTicks.push_back(t.stallTicks);
  hot_.barrierTicks.push_back(t.barrierTicks);
  hot_.suspendedTicks.push_back(t.suspendedTicks);
  hot_.fastCoreTicks.push_back(t.fastCoreTicks);
  hot_.slowCoreTicks.push_back(t.slowCoreTicks);
  hot_.coreId.push_back(t.coreId);
  hot_.stallUntil.push_back(t.stallUntilTick);
  hot_.coldUntil.push_back(t.coldUntilTick);
  hot_.suspended.push_back(0);
  hot_.waiting.push_back(0);
  hot_.finished.push_back(0);
  hot_.barriersPassed.push_back(t.barriersPassed);
  hot_.socket.push_back(-1);
  hot_.physicalCore.push_back(-1);
  hot_.fastCore.push_back(0);
  hot_.conflict.push_back(1.0);
  hot_.phase.push_back(nullptr);
  hot_.barrierEvery.push_back(0.0);
  hot_.totalInstructions.push_back(0.0);
  syncHotThread(t.id);
  // The phase cache is refreshed by the caller once the owning process is
  // in processes_ (currentPhase needs it there).
}

void Machine::syncHotThread(int threadId) {
  const auto i = static_cast<std::size_t>(threadId);
  const SimThread& t = threads_[i];
  hot_.coreId[i] = t.coreId;
  hot_.stallUntil[i] = t.stallUntilTick;
  hot_.coldUntil[i] = t.coldUntilTick;
  hot_.suspended[i] = t.suspended ? 1 : 0;
  hot_.waiting[i] = t.waitingAtBarrier ? 1 : 0;
  hot_.finished[i] = t.finished ? 1 : 0;
  hot_.barriersPassed[i] = t.barriersPassed;
  if (t.coreId >= 0) {
    const CoreDesc& core = topology_.core(t.coreId);
    hot_.socket[i] = core.socket;
    hot_.physicalCore[i] = core.physicalCore;
    hot_.fastCore[i] = core.type == CoreType::Fast ? 1 : 0;
    hot_.conflict[i] =
        t.socketConflict[static_cast<std::size_t>(core.socket)];
  } else {
    hot_.socket[i] = -1;
    hot_.physicalCore[i] = -1;
    hot_.fastCore[i] = 0;
    hot_.conflict[i] = 1.0;
  }
}

void Machine::refreshPhaseCache(int threadId) {
  const auto i = static_cast<std::size_t>(threadId);
  const SimThread& t = threads_[i];
  const SimProcess& proc = processes_[static_cast<std::size_t>(t.processId)];
  hot_.phase[i] = &currentPhase(t);
  hot_.barrierEvery[i] = proc.program.barrierEveryInstructions;
  hot_.totalInstructions[i] = proc.program.totalInstructions();
}

void Machine::rebuildHotState() {
  for (const SimThread& t : threads_) {
    const auto i = static_cast<std::size_t>(t.id);
    hot_.executed[i] = t.executed;
    hot_.phaseExecuted[i] = t.phaseExecuted;
    hot_.quantumInstructions[i] = t.quantumInstructions;
    hot_.quantumAccesses[i] = t.quantumAccesses;
    hot_.totalAccesses[i] = t.totalAccesses;
    hot_.prevUtilization[i] = t.prevUtilization;
    hot_.runnableTicks[i] = t.runnableTicks;
    hot_.stallTicks[i] = t.stallTicks;
    hot_.barrierTicks[i] = t.barrierTicks;
    hot_.suspendedTicks[i] = t.suspendedTicks;
    hot_.fastCoreTicks[i] = t.fastCoreTicks;
    hot_.slowCoreTicks[i] = t.slowCoreTicks;
    syncHotThread(t.id);
    refreshPhaseCache(t.id);
  }
  hotDirty_ = false;
  llcDirty_ = true;
  servedValid_ = false;
}

void Machine::flushHotState() const noexcept {
  if (!hotDirty_) return;
  for (SimThread& t : threads_) {
    const auto i = static_cast<std::size_t>(t.id);
    t.executed = hot_.executed[i];
    t.phaseExecuted = hot_.phaseExecuted[i];
    t.quantumInstructions = hot_.quantumInstructions[i];
    t.quantumAccesses = hot_.quantumAccesses[i];
    t.totalAccesses = hot_.totalAccesses[i];
    t.prevUtilization = hot_.prevUtilization[i];
    t.runnableTicks = hot_.runnableTicks[i];
    t.stallTicks = hot_.stallTicks[i];
    t.barrierTicks = hot_.barrierTicks[i];
    t.suspendedTicks = hot_.suspendedTicks[i];
    t.fastCoreTicks = hot_.fastCoreTicks[i];
    t.slowCoreTicks = hot_.slowCoreTicks[i];
  }
  hotDirty_ = false;
}

void Machine::placeThread(int threadId, int coreId) {
  SimThread& t = threads_.at(static_cast<std::size_t>(threadId));
  if (t.coreId >= 0) throw std::logic_error{"thread is already placed"};
  if (coreToThread_.at(static_cast<std::size_t>(coreId)) != -1)
    throw std::logic_error{"core is already occupied"};
  t.coreId = coreId;
  t.startTick = now_;
  coreToThread_[static_cast<std::size_t>(coreId)] = threadId;
  syncHotThread(threadId);
  llcDirty_ = true;
  emit(TraceEventKind::Placement, t, -1, coreId);
}

bool Machine::allFinished() const noexcept { return liveThreads_.empty(); }

int Machine::runningThreadCount() const noexcept {
  return static_cast<int>(std::count_if(
      liveThreads_.begin(), liveThreads_.end(), [this](int id) {
        return threads_[static_cast<std::size_t>(id)].coreId >= 0;
      }));
}

void Machine::emit(TraceEventKind kind, const SimThread& t, int fromCore,
                   int toCore, int detail) {
  if (trace_ == nullptr) return;
  TraceEvent e;
  e.tick = now_;
  e.kind = kind;
  e.threadId = t.id;
  e.processId = t.processId;
  e.fromCore = fromCore;
  e.toCore = toCore;
  e.detail = detail;
  trace_->record(e);
}

bool Machine::isRunnable(const SimThread& t) const noexcept {
  return !t.finished && t.coreId >= 0 && now_ >= t.stallUntilTick &&
         !t.waitingAtBarrier && !t.suspended;
}

const Phase& Machine::currentPhase(const SimThread& t) const {
  const auto& phases =
      processes_[static_cast<std::size_t>(t.processId)].program.phases;
  const auto idx = std::min(static_cast<std::size_t>(t.phaseIndex),
                            phases.size() - 1);
  return phases[idx];
}

void Machine::step() { (void)stepOnce(); }

Machine::TickOutcome Machine::stepOnce() {
  const util::Tick tickEnd = now_ + 1;
  tickHadEvent_ = false;
  hotDirty_ = true;
  bool utilChanged = false;
  bool timerEdge = false;

  // LLC pressure: per socket, the summed working sets of resident threads
  // (stalled and barrier-blocked threads still occupy cache). Its inputs
  // change only on placement/phase/membership events, so the transformed
  // inflation factors are cached across ticks (recomputing would repeat the
  // exact same summation — the cache is bit-identical).
  if (llcDirty_) {
    llcPressureScratch_.assign(
        static_cast<std::size_t>(topology_.socketCount()), 0.0);
    for (int id : liveThreads_) {
      const auto i = static_cast<std::size_t>(id);
      if (hot_.coreId[i] < 0) continue;
      llcPressureScratch_[static_cast<std::size_t>(hot_.socket[i])] +=
          hot_.phase[i]->workingSetMB;
    }
    for (double& mb : llcPressureScratch_) {
      const double pressure =
          config_.llcPerSocketMB > 0.0 ? mb / config_.llcPerSocketMB : 0.0;
      mb = std::min(
          2.0, 1.0 + config_.llcPressureFactor * std::max(0.0, pressure - 1.0));
    }
    llcFactor_ = llcPressureScratch_;
    llcDirty_ = false;
  }
  const std::vector<double>& llcFactor = llcFactor_;

  // Fused accounting pass: energy watts, per-state tick counters, SMT load
  // per physical core, and the leap-blocking stall/cold expiry probe — one
  // stream over the SoA arrays. Each accumulator still sees exactly the
  // additions, in exactly the liveThreads_ order, of the unfused loops.
  double watts = config_.idlePowerW *
                 static_cast<double>(topology_.physicalCoreCount());
  smtLoadScratch_.assign(
      static_cast<std::size_t>(topology_.physicalCoreCount()), 0.0);
  for (int id : liveThreads_) {
    const auto i = static_cast<std::size_t>(id);
    const int core = hot_.coreId[i];
    if (core < 0) continue;
    if (hot_.stallUntil[i] == tickEnd || hot_.coldUntil[i] == tickEnd)
      timerEdge = true;
    const bool stalled = now_ < hot_.stallUntil[i];
    const bool runnable =
        !stalled && hot_.waiting[i] == 0 && hot_.suspended[i] == 0;
    if (runnable) {
      const double f =
          physFreqGhz_[static_cast<std::size_t>(hot_.physicalCore[i])] /
          std::max(1e-9, config_.refFreqGhz);
      watts += config_.dynamicPowerW * f * f * f * hot_.prevUtilization[i];
      smtLoadScratch_[static_cast<std::size_t>(hot_.physicalCore[i])] +=
          hot_.prevUtilization[i];
      ++hot_.runnableTicks[i];
      if (hot_.fastCore[i] != 0)
        ++hot_.fastCoreTicks[i];
      else
        ++hot_.slowCoreTicks[i];
    } else if (hot_.suspended[i] != 0) {
      ++hot_.suspendedTicks[i];
    } else if (stalled) {
      ++hot_.stallTicks[i];
    } else {
      ++hot_.barrierTicks[i];
    }
  }
  energyJ_ += watts * util::kTickSeconds;

  // Gather issue capacities and memory demands for runnable threads.
  demandScratch_.clear();
  capScratch_.clear();
  activeScratch_.clear();
  std::vector<int>& activeThreads = activeScratch_;
  for (int id : liveThreads_) {
    const auto i = static_cast<std::size_t>(id);
    if (hot_.coreId[i] < 0 || now_ < hot_.stallUntil[i] ||
        hot_.waiting[i] != 0 || hot_.suspended[i] != 0)
      continue;
    const Phase& phase = *hot_.phase[i];
    const double siblingUtil = std::clamp(
        smtLoadScratch_[static_cast<std::size_t>(hot_.physicalCore[i])] -
            hot_.prevUtilization[i],
        0.0, 1.0);
    const double smtFactor =
        1.0 - (1.0 - config_.smtSharedFactor) * siblingUtil;
    const bool cold = now_ < hot_.coldUntil[i];
    const double coldIpc = cold ? config_.cacheColdSlowdown : 1.0;
    const double coldTraffic = cold ? config_.cacheColdFactor : 1.0;
    const double conflict = hot_.conflict[i];
    const double llcInflate =
        llcFactor[static_cast<std::size_t>(hot_.socket[i])];
    const double freqGhz =
        physFreqGhz_[static_cast<std::size_t>(hot_.physicalCore[i])];
    const double capInstr = freqGhz * 1e9 * phase.ipc * smtFactor * coldIpc *
                            util::kTickSeconds;
    capScratch_.push_back(capInstr);
    demandScratch_.push_back(
        MemoryDemand{hot_.socket[i], capInstr * phase.memPerInstr *
                                         coldTraffic * conflict * llcInflate});
    activeThreads.push_back(id);
  }

  // Memoized arbitration: bitwise-identical demands (the active-set
  // signature) make arbitrateInto — a pure function of them — return the
  // previous tick's served vector unchanged, so it is simply reused.
  if (servedValid_ && sameDemands(demandScratch_, prevDemands_)) {
    DIKE_COUNTER("sim.mem.arb_cache_hits");
  } else {
    arbitrateInto(demandScratch_, config_.memory, topology_.socketCount(),
                  util::kTickSeconds, arbScratch_, servedScratch_);
    prevDemands_.assign(demandScratch_.begin(), demandScratch_.end());
    servedValid_ = true;
  }
  const std::vector<double>& served = servedScratch_;

  executedScratch_.clear();
  accessesScratch_.clear();
  for (std::size_t k = 0; k < activeThreads.size(); ++k) {
    const auto i = static_cast<std::size_t>(activeThreads[k]);
    const Phase& phase = *hot_.phase[i];
    const double capInstr = capScratch_[k];
    const double cold = now_ < hot_.coldUntil[i] ? config_.cacheColdFactor : 1.0;
    const double conflict = hot_.conflict[i];
    const double llcInflate =
        llcFactor[static_cast<std::size_t>(hot_.socket[i])];
    const double effMemPerInstr =
        phase.memPerInstr * cold * conflict * llcInflate;
    const double memLimited =
        effMemPerInstr > 0.0 ? served[k] / effMemPerInstr : capInstr;
    double executed = std::min(capInstr, memLimited);

    // Clip to the current phase boundary.
    const double phaseRemaining = phase.instructions - hot_.phaseExecuted[i];
    executed = std::min(executed, phaseRemaining);

    // Clip to the next barrier, if the program synchronises.
    const double barrierEvery = hot_.barrierEvery[i];
    bool hitBarrier = false;
    if (barrierEvery > 0.0) {
      const double nextBarrierAt =
          static_cast<double>(hot_.barriersPassed[i] + 1) * barrierEvery;
      const double total = hot_.totalInstructions[i];
      if (nextBarrierAt < total - kEps) {
        const double toBarrier = nextBarrierAt - hot_.executed[i];
        if (executed >= toBarrier - kEps) {
          executed = std::max(0.0, toBarrier);
          hitBarrier = true;
        }
      }
    }

    const double newUtil = capInstr > 0.0 ? executed / capInstr : 0.0;
    // Snap to the previous utilisation when the move is within epsilon so
    // the SMT feedback loop reaches an exact fixed point (see MachineConfig).
    if (std::abs(newUtil - hot_.prevUtilization[i]) >
        config_.utilizationSnapEpsilon) {
      hot_.prevUtilization[i] = newUtil;
      utilChanged = true;
    }
    const double accesses = executed * effMemPerInstr;
    executedScratch_.push_back(executed);
    accessesScratch_.push_back(accesses);
    advanceThread(activeThreads[k], executed, accesses);
    if (hitBarrier && hot_.finished[i] == 0) {
      SimThread& t = threads_[i];
      ++t.barriersPassed;
      t.waitingAtBarrier = true;
      hot_.barriersPassed[i] = t.barriersPassed;
      hot_.waiting[i] = 1;
      tickHadEvent_ = true;
      emit(TraceEventKind::BarrierWait, t, -1, -1, t.barriersPassed);
    }
  }

  now_ = tickEnd;
  resolveBarriers();
  ++stats_.computedTicks;
  DIKE_COUNTER("sim.ticks.computed");

  // The next tick repeats this one bitwise unless something structural
  // happened, a utilisation moved, or a stall/cold window expires exactly
  // at the next tick boundary (which would flip a predicate between the
  // computed tick and its first replay). The expiry probe ran in the fused
  // accounting pass: within a tick stallUntil/coldUntil are immutable, and
  // the only membership change — a finish — also sets tickHadEvent_.
  const bool steady = !tickHadEvent_ && !utilChanged && !timerEdge;
  return TickOutcome{steady, watts};
}

util::Tick Machine::leapHorizon(util::Tick target) const {
  util::Tick n = target - now_;
  // Stall/cold windows: keep every time predicate constant across the leap.
  for (int id : liveThreads_) {
    const auto i = static_cast<std::size_t>(id);
    if (hot_.coreId[i] < 0) continue;
    if (now_ < hot_.stallUntil[i]) n = std::min(n, hot_.stallUntil[i] - now_);
    if (now_ < hot_.coldUntil[i]) n = std::min(n, hot_.coldUntil[i] - now_);
  }
  // Progress events: stop (conservatively) before any active thread can
  // cross its phase boundary or reach its next barrier.
  for (std::size_t k = 0; k < activeScratch_.size(); ++k) {
    const auto i = static_cast<std::size_t>(activeScratch_[k]);
    const double e = executedScratch_[k];
    if (e <= 0.0) continue;
    const Phase& phase = *hot_.phase[i];
    const double slack = std::max(kEps, phase.instructions * 1e-12);
    n = std::min(n,
                 ticksBelow(phase.instructions - slack - hot_.phaseExecuted[i],
                            e));
    const double barrierEvery = hot_.barrierEvery[i];
    if (barrierEvery > 0.0) {
      const double nextBarrierAt =
          static_cast<double>(hot_.barriersPassed[i] + 1) * barrierEvery;
      if (nextBarrierAt < hot_.totalInstructions[i] - kEps)
        n = std::min(n, ticksBelow(nextBarrierAt - kEps - hot_.executed[i], e));
    }
  }
  return std::max<util::Tick>(n, 0);
}

void Machine::replayTicks(util::Tick n, double watts) {
  // Bit-identity rule: every accumulator ends at the exact value the n
  // per-tick additions would leave (see repeatedSum and DESIGN.md
  // "Event-batched time"); integer counters are exact either way.
  // Everything else — pressure, arbitration, phase lookups — is provably
  // unchanged across the window and simply not recomputed.
  hotDirty_ = true;
  energyJ_ = repeatedSum(energyJ_, watts * util::kTickSeconds, n);

  for (int id : liveThreads_) {
    const auto i = static_cast<std::size_t>(id);
    if (hot_.coreId[i] < 0) continue;
    if (hot_.suspended[i] != 0) {
      hot_.suspendedTicks[i] += n;
    } else if (now_ < hot_.stallUntil[i]) {
      hot_.stallTicks[i] += n;
    } else if (hot_.waiting[i] != 0) {
      hot_.barrierTicks[i] += n;
    } else {
      hot_.runnableTicks[i] += n;
      if (hot_.fastCore[i] != 0)
        hot_.fastCoreTicks[i] += n;
      else
        hot_.slowCoreTicks[i] += n;
    }
  }

  // Cumulative chains take the closed form on long leaps; on short ones
  // performing the additions, in SIMD lanes, is cheaper.
  if (n >= kClosedFormMinTicks) {
    for (std::size_t k = 0; k < activeScratch_.size(); ++k) {
      const auto i = static_cast<std::size_t>(activeScratch_[k]);
      const double e = executedScratch_[k];
      hot_.executed[i] = repeatedSum(hot_.executed[i], e, n);
      hot_.phaseExecuted[i] = repeatedSum(hot_.phaseExecuted[i], e, n);
      hot_.totalAccesses[i] =
          repeatedSum(hot_.totalAccesses[i], accessesScratch_[k], n);
    }
    replayInLanes<false>(n);
  } else {
    replayInLanes<true>(n);
  }

  now_ += n;
  stats_.leapedTicks += n;
  DIKE_COUNTER("sim.leap.replays");
  DIKE_COUNTER_ADD("sim.ticks.leaped", n);
}

template <bool kWithCumulative>
void Machine::replayInLanes(util::Tick n) {
  const std::size_t active = activeScratch_.size();
  for (std::size_t k0 = 0; k0 < active; k0 += kLaneGroup) {
    // Lanes past the last active thread replay a copy of it and are not
    // stored back.
    std::array<std::size_t, kLaneGroup> slot{}, id{}, core{};
    for (std::size_t l = 0; l < kLaneGroup; ++l) {
      slot[l] = std::min(k0 + l, active - 1);
      id[l] = static_cast<std::size_t>(activeScratch_[slot[l]]);
      core[l] = static_cast<std::size_t>(hot_.coreId[id[l]]);
    }
    const auto lanes = [](const std::vector<double>& v, const auto& at,
                          std::size_t l) {
      return DoublePair{v[at[l]], v[at[l + 1]]};
    };
    const DoublePair e0 = lanes(executedScratch_, slot, 0);
    const DoublePair e1 = lanes(executedScratch_, slot, 2);
    const DoublePair a0 = lanes(accessesScratch_, slot, 0);
    const DoublePair a1 = lanes(accessesScratch_, slot, 2);
    DoublePair instr0 = lanes(hot_.quantumInstructions, id, 0);
    DoublePair instr1 = lanes(hot_.quantumInstructions, id, 2);
    DoublePair acc0 = lanes(hot_.quantumAccesses, id, 0);
    DoublePair acc1 = lanes(hot_.quantumAccesses, id, 2);
    DoublePair core0 = lanes(coreQuantumAccesses_, core, 0);
    DoublePair core1 = lanes(coreQuantumAccesses_, core, 2);
    DoublePair exec0{}, exec1{}, phase0{}, phase1{}, total0{}, total1{};
    if constexpr (kWithCumulative) {
      exec0 = lanes(hot_.executed, id, 0);
      exec1 = lanes(hot_.executed, id, 2);
      phase0 = lanes(hot_.phaseExecuted, id, 0);
      phase1 = lanes(hot_.phaseExecuted, id, 2);
      total0 = lanes(hot_.totalAccesses, id, 0);
      total1 = lanes(hot_.totalAccesses, id, 2);
    }
    for (util::Tick t = 0; t < n; ++t) {
      instr0 += e0;
      instr1 += e1;
      acc0 += a0;
      acc1 += a1;
      core0 += a0;
      core1 += a1;
      if constexpr (kWithCumulative) {
        exec0 += e0;
        exec1 += e1;
        phase0 += e0;
        phase1 += e1;
        total0 += a0;
        total1 += a1;
      }
    }
    const std::size_t used = std::min(kLaneGroup, active - k0);
    const auto store = [used](std::vector<double>& v, const auto& at,
                              DoublePair lo, DoublePair hi) {
      const std::array<double, kLaneGroup> out{lo[0], lo[1], hi[0], hi[1]};
      for (std::size_t l = 0; l < used; ++l) v[at[l]] = out[l];
    };
    store(hot_.quantumInstructions, id, instr0, instr1);
    store(hot_.quantumAccesses, id, acc0, acc1);
    store(coreQuantumAccesses_, core, core0, core1);
    if constexpr (kWithCumulative) {
      store(hot_.executed, id, exec0, exec1);
      store(hot_.phaseExecuted, id, phase0, phase1);
      store(hot_.totalAccesses, id, total0, total1);
    }
  }
}

void Machine::stepUntil(util::Tick target, bool stopWhenAllFinished) {
  while (now_ < target) {
    if (stopWhenAllFinished && liveThreads_.empty()) return;
    const TickOutcome tick = stepOnce();
    if (stopWhenAllFinished && liveThreads_.empty()) return;
    if (!config_.tickLeaping || !tick.steady || now_ >= target) continue;
    const util::Tick n = leapHorizon(target);
    if (n > 0) replayTicks(n, tick.watts);
  }
}

void Machine::advanceThread(int threadId, double executed, double accesses) {
  const auto i = static_cast<std::size_t>(threadId);
  hot_.executed[i] += executed;
  hot_.phaseExecuted[i] += executed;
  hot_.quantumInstructions[i] += executed;
  hot_.quantumAccesses[i] += accesses;
  hot_.totalAccesses[i] += accesses;
  if (hot_.coreId[i] >= 0)
    coreQuantumAccesses_[static_cast<std::size_t>(hot_.coreId[i])] += accesses;

  SimThread& t = threads_[i];
  const SimProcess& proc = processes_[static_cast<std::size_t>(t.processId)];
  const auto& phases = proc.program.phases;

  // Phase transition(s): a tick never spans more than one boundary because
  // executed was clipped to the phase remainder above. Per-phase budgets
  // use a relative epsilon so accumulated floating error over billions of
  // instructions cannot strand a thread one tick short of a boundary.
  if (t.phaseIndex < static_cast<int>(phases.size())) {
    const Phase& phase = phases[static_cast<std::size_t>(t.phaseIndex)];
    const double slack = std::max(kEps, phase.instructions * 1e-12);
    if (hot_.phaseExecuted[i] >= phase.instructions - slack) {
      ++t.phaseIndex;
      hot_.phaseExecuted[i] = 0.0;
      tickHadEvent_ = true;
      llcDirty_ = true;  // the new phase's working set changes LLC pressure
      if (t.phaseIndex < static_cast<int>(phases.size()))
        emit(TraceEventKind::PhaseChange, t, -1, -1, t.phaseIndex);
      refreshPhaseCache(threadId);
    }
  }

  // A thread is done exactly when it has retired every phase — comparing
  // the cumulative counter against the total budget would double-count the
  // drift the per-phase clipping already absorbed.
  if (t.phaseIndex >= static_cast<int>(phases.size())) finishThread(t);
}

void Machine::finishThread(SimThread& t) {
  if (t.finished) return;
  const auto i = static_cast<std::size_t>(t.id);
  t.finished = true;
  t.finishTick = now_ + 1;  // completes at the end of the current tick
  t.waitingAtBarrier = false;
  hot_.finished[i] = 1;
  hot_.waiting[i] = 0;
  llcDirty_ = true;  // the thread's working set leaves its socket's LLC
  tickHadEvent_ = true;
  if (t.coreId >= 0) coreToThread_[static_cast<std::size_t>(t.coreId)] = -1;
  // Ordered erase keeps liveThreads_ ascending, preserving the FP summation
  // order of the per-tick loops.
  const auto it = std::find(liveThreads_.begin(), liveThreads_.end(), t.id);
  if (it != liveThreads_.end()) liveThreads_.erase(it);

  SimProcess& proc = processes_[static_cast<std::size_t>(t.processId)];
  const bool allDone = std::all_of(
      proc.threadIds.begin(), proc.threadIds.end(), [this](int id) {
        return threads_[static_cast<std::size_t>(id)].finished;
      });
  emit(TraceEventKind::ThreadFinish, t);
  if (allDone) {
    proc.finishTick = t.finishTick;
    emit(TraceEventKind::ProcessFinish, t);
  }
}

void Machine::resolveBarriers() {
  for (const SimProcess& proc : processes_) {
    if (!proc.program.hasBarriers() || proc.finished()) continue;
    int minPassed = std::numeric_limits<int>::max();
    bool anyWaiting = false;
    for (int id : proc.threadIds) {
      const SimThread& t = threads_[static_cast<std::size_t>(id)];
      if (t.finished) continue;
      minPassed = std::min(minPassed, t.barriersPassed);
      anyWaiting = anyWaiting || t.waitingAtBarrier;
    }
    if (!anyWaiting) continue;
    for (int id : proc.threadIds) {
      SimThread& t = threads_[static_cast<std::size_t>(id)];
      if (!t.finished && t.waitingAtBarrier && t.barriersPassed <= minPassed) {
        t.waitingAtBarrier = false;
        hot_.waiting[static_cast<std::size_t>(id)] = 0;
        tickHadEvent_ = true;
        emit(TraceEventKind::BarrierRelease, t, -1, -1, t.barriersPassed);
      }
    }
  }
}

void Machine::applyMigrationStall(SimThread& t, int fromCore) {
  t.stallUntilTick = now_ + config_.migrationStallTicks;
  t.coldUntilTick =
      now_ + config_.migrationStallTicks + config_.cacheColdTicks;
  ++t.migrations;
  t.lastMigrationTick = now_;
  ++migrationCount_;
  DIKE_COUNTER("sim.migrations");
  emit(TraceEventKind::Migration, t, fromCore, t.coreId);
}

void Machine::swapThreads(int threadA, int threadB) {
  if (threadA == threadB)
    throw std::invalid_argument{"cannot swap a thread with itself"};
  SimThread& a = threads_.at(static_cast<std::size_t>(threadA));
  SimThread& b = threads_.at(static_cast<std::size_t>(threadB));
  if (a.finished || b.finished)
    throw std::logic_error{"cannot swap a finished thread"};
  if (a.coreId < 0 || b.coreId < 0)
    throw std::logic_error{"cannot swap an unplaced thread"};

  const int coreA = a.coreId;
  const int coreB = b.coreId;
  std::swap(a.coreId, b.coreId);
  coreToThread_[static_cast<std::size_t>(a.coreId)] = a.id;
  coreToThread_[static_cast<std::size_t>(b.coreId)] = b.id;
  applyMigrationStall(a, coreA);
  applyMigrationStall(b, coreB);
  syncHotThread(a.id);
  syncHotThread(b.id);
  llcDirty_ = true;
  ++swapCount_;
  DIKE_COUNTER("sim.swaps");
  const auto stall =
      static_cast<double>(config_.migrationStallTicks + config_.cacheColdTicks);
  telemetry::publish(telemetry::EventKind::ActuationStall,
                     static_cast<std::uint32_t>(a.id), now_, stall, 1.0);
  telemetry::publish(telemetry::EventKind::ActuationStall,
                     static_cast<std::uint32_t>(b.id), now_, stall, 1.0);
}

void Machine::migrateThread(int threadId, int coreId) {
  SimThread& t = threads_.at(static_cast<std::size_t>(threadId));
  if (t.finished) throw std::logic_error{"cannot migrate a finished thread"};
  if (coreToThread_.at(static_cast<std::size_t>(coreId)) != -1)
    throw std::logic_error{"destination core is occupied"};
  const int fromCore = t.coreId;
  if (t.coreId >= 0) coreToThread_[static_cast<std::size_t>(t.coreId)] = -1;
  t.coreId = coreId;
  coreToThread_[static_cast<std::size_t>(coreId)] = threadId;
  applyMigrationStall(t, fromCore);
  syncHotThread(threadId);
  llcDirty_ = true;
  telemetry::publish(
      telemetry::EventKind::ActuationStall, static_cast<std::uint32_t>(t.id),
      now_,
      static_cast<double>(config_.migrationStallTicks + config_.cacheColdTicks),
      2.0);
}

void Machine::setPhysicalCoreFrequency(int physicalCore, double freqGhz) {
  if (freqGhz <= 0.0) throw std::invalid_argument{"frequency must be > 0"};
  physFreqGhz_.at(static_cast<std::size_t>(physicalCore)) = freqGhz;
}

void Machine::setSocketFrequency(int socket, double freqGhz) {
  bool any = false;
  for (const CoreDesc& core : topology_.cores()) {
    if (core.socket == socket && core.smtIndex == 0) {
      setPhysicalCoreFrequency(core.physicalCore, freqGhz);
      any = true;
    }
  }
  if (!any) throw std::out_of_range{"unknown socket"};
}

double Machine::coreFrequencyGhz(int vcore) const {
  return physFreqGhz_.at(
      static_cast<std::size_t>(topology_.core(vcore).physicalCore));
}

void Machine::suspendThread(int threadId) {
  SimThread& t = threads_.at(static_cast<std::size_t>(threadId));
  if (t.finished) throw std::logic_error{"cannot suspend a finished thread"};
  if (t.suspended) return;
  t.suspended = true;
  hot_.suspended[static_cast<std::size_t>(threadId)] = 1;
  emit(TraceEventKind::Suspend, t);
}

void Machine::resumeThread(int threadId) {
  SimThread& t = threads_.at(static_cast<std::size_t>(threadId));
  if (!t.suspended) return;
  t.suspended = false;
  hot_.suspended[static_cast<std::size_t>(threadId)] = 0;
  emit(TraceEventKind::Resume, t);
}

QuantumSample Machine::sampleAndReset() {
  QuantumSample sample;
  sampleAndResetInto(sample);
  return sample;
}

void Machine::sampleAndResetInto(QuantumSample& out) {
  DIKE_SCOPE_TIMER("sim.sample_and_reset");
  DIKE_COUNTER("sim.samples");
  out.periodTicks = std::max<util::Tick>(1, now_ - lastSampleTick_);
  const double periodSec =
      static_cast<double>(out.periodTicks) * util::kTickSeconds;

  // Every thread — finished ones included — is visited in id order so the
  // two noise draws per thread consume the RNG stream exactly as before.
  out.threads.clear();
  out.threads.reserve(threads_.size());
  for (const SimThread& t : threads_) {
    const auto i = static_cast<std::size_t>(t.id);
    ThreadSample s;
    s.threadId = t.id;
    s.processId = t.processId;
    s.coreId = hot_.coreId[i];
    s.finished = hot_.finished[i] != 0;
    const double noise = rng_.noiseFactor(config_.measurementNoiseSigma);
    s.instructions = hot_.quantumInstructions[i];
    s.accesses = hot_.quantumAccesses[i];
    s.accessRate = (hot_.quantumAccesses[i] / periodSec) * noise;
    const double ratioNoise = rng_.noiseFactor(config_.measurementNoiseSigma);
    s.llcMissRatio =
        std::clamp(hot_.phase[i]->llcMissRatio * ratioNoise, 0.0, 1.0);
    out.threads.push_back(s);

    hot_.quantumInstructions[i] = 0.0;
    hot_.quantumAccesses[i] = 0.0;
  }
  hotDirty_ = true;  // the quantum accumulators were just zeroed

  out.coreAchievedBw.resize(coreQuantumAccesses_.size());
  for (std::size_t c = 0; c < coreQuantumAccesses_.size(); ++c) {
    out.coreAchievedBw[c] = coreQuantumAccesses_[c] / periodSec;
    coreQuantumAccesses_[c] = 0.0;
  }
  lastSampleTick_ = now_;
}

template <class Ar>
void Machine::fields(Ar& ar) {
  if constexpr (!Ar::kLoading) flushHotState();  // the structs are saved
  ar.section("machine", [&] {
    ar.io("now", now_);
    ar.io("lastSampleTick", lastSampleTick_);
    ar.io("swapCount", swapCount_);
    ar.io("migrationCount", migrationCount_);
    ar.io("energyJoules", energyJ_);
    ar.io("computedTicks", stats_.computedTicks);
    ar.io("leapedTicks", stats_.leapedTicks);
    ar.io("rng", rng_);
    ar.io("physFreqGhz", physFreqGhz_);
    ar.io("coreToThread", coreToThread_);
    ar.io("liveThreads", liveThreads_);
    ar.io("coreQuantumAccesses", coreQuantumAccesses_);
    ar.expect("threadCount", util::isize(threads_));
    for (SimThread& t : threads_) {
      ar.section("thread " + std::to_string(t.id), [&] {
        ar.expect("id", t.id);
        ar.expect("processId", t.processId);
        ar.expect("indexInProcess", t.indexInProcess);
        ar.io("executed", t.executed);
        ar.io("phaseExecuted", t.phaseExecuted);
        ar.io("phaseIndex", t.phaseIndex);
        ar.io("coreId", t.coreId);
        ar.io("stallUntilTick", t.stallUntilTick);
        ar.io("coldUntilTick", t.coldUntilTick);
        ar.io("suspended", t.suspended);
        ar.io("waitingAtBarrier", t.waitingAtBarrier);
        ar.io("barriersPassed", t.barriersPassed);
        ar.io("startTick", t.startTick);
        ar.io("finished", t.finished);
        ar.io("finishTick", t.finishTick);
        ar.io("quantumInstructions", t.quantumInstructions);
        ar.io("quantumAccesses", t.quantumAccesses);
        ar.io("totalAccesses", t.totalAccesses);
        ar.io("migrations", t.migrations);
        ar.io("lastMigrationTick", t.lastMigrationTick);
        ar.io("socketConflict", t.socketConflict);
        ar.io("prevUtilization", t.prevUtilization);
        ar.io("runnableTicks", t.runnableTicks);
        ar.io("stallTicks", t.stallTicks);
        ar.io("barrierTicks", t.barrierTicks);
        ar.io("suspendedTicks", t.suspendedTicks);
        ar.io("fastCoreTicks", t.fastCoreTicks);
        ar.io("slowCoreTicks", t.slowCoreTicks);
      });
    }
    ar.expect("processCount", util::isize(processes_));
    for (SimProcess& p : processes_) {
      ar.section("process " + std::to_string(p.id), [&] {
        ar.expect("name", p.name);
        ar.io("finishTick", p.finishTick);
      });
    }
  });
  if constexpr (Ar::kLoading) {
    checkRestored();
    tickHadEvent_ = false;
    rebuildHotState();
  }
}

DIKE_CKPT_FIELDS(Machine);

void Machine::checkRestored() const {
  const auto fail = [](const std::string& what) {
    throw ckpt::CheckpointError{"checkpointed machine " + what};
  };
  const int cores = topology_.coreCount();
  const int threads = util::isize(threads_);
  if (util::isize(physFreqGhz_) != topology_.physicalCoreCount() ||
      util::isize(coreToThread_) != cores ||
      util::isize(coreQuantumAccesses_) != cores)
    fail("does not match this topology's core counts");
  for (const SimThread& t : threads_) {
    const auto& phases =
        processes_[static_cast<std::size_t>(t.processId)].program.phases;
    if (util::isize(t.socketConflict) != topology_.socketCount())
      fail("gives thread " + std::to_string(t.id) +
           " a socket-conflict draw per socket of another topology");
    if (t.phaseIndex < 0 || t.phaseIndex > util::isize(phases))
      fail("puts thread " + std::to_string(t.id) + " in phase " +
           std::to_string(t.phaseIndex) + " of " +
           std::to_string(phases.size()));
    if (t.coreId < -1 || t.coreId >= cores)
      fail("puts thread " + std::to_string(t.id) + " on core " +
           std::to_string(t.coreId) + " of " + std::to_string(cores));
    if (!t.finished && t.coreId >= 0 &&
        coreToThread_[static_cast<std::size_t>(t.coreId)] != t.id)
      fail("puts thread " + std::to_string(t.id) +
           " on a core its core map gives to another");
  }
  for (int c = 0; c < cores; ++c) {
    const int id = coreToThread_[static_cast<std::size_t>(c)];
    if (id != -1 &&
        (id < 0 || id >= threads ||
         threads_[static_cast<std::size_t>(id)].coreId != c ||
         threads_[static_cast<std::size_t>(id)].finished))
      fail("maps core " + std::to_string(c) + " to thread " +
           std::to_string(id) + ", which is not a live thread there");
  }
  for (const int id : liveThreads_)
    if (id < 0 || id >= threads)
      fail("lists live thread " + std::to_string(id) + " of " +
           std::to_string(threads));
}

bool stepQuantum(Machine& machine, QuantumPolicy& policy,
                 const RunLimits& limits, RunCursor& cursor) {
  if (cursor.nextQuantumAt < 0) cursor.nextQuantumAt = policy.quantumTicks();
  // The stop flag is checked once per loop pass (a quantum boundary at
  // most), so a SIGINT unwinds through the normal return path and every
  // telemetry sink finalises cleanly — never mid-row, never mid-file.
  while (machine.now() < limits.maxTicks && !util::stopRequested()) {
    // A policy holding the run open (arrivals pending) keeps time moving
    // across an idle machine instead of stopping at the last finish.
    const bool holding = policy.holdsRunOpen();
    if (machine.allFinished() && !holding) return false;
    const util::Tick target = std::min(
        limits.maxTicks, std::max(cursor.nextQuantumAt, machine.now() + 1));
    machine.stepUntil(target, /*stopWhenAllFinished=*/!holding);
    if (machine.now() >= cursor.nextQuantumAt) {
      if (machine.allFinished() && !holding) return false;
      policy.onQuantum(machine);
      const util::Tick quantum = std::max<util::Tick>(1, policy.quantumTicks());
      telemetry::publish(telemetry::EventKind::QuantumTicks,
                         static_cast<std::uint32_t>(cursor.quantumIndex),
                         machine.now(), static_cast<double>(quantum));
      // Schedule from the previous deadline, not the observed tick, so one
      // late quantum cannot shift the whole subsequent schedule. stepUntil
      // never overshoots the target, so the clamp only guards pathological
      // policies that move the deadline into the past.
      cursor.nextQuantumAt =
          std::max(cursor.nextQuantumAt + quantum, machine.now() + 1);
      ++cursor.quantumIndex;
      return true;
    }
  }
  return false;
}

RunOutcome runOutcome(const Machine& machine) {
  const bool stopped = util::stopRequested() && !machine.allFinished();
  return RunOutcome{machine.now(), !machine.allFinished() && !stopped,
                    stopped};
}

RunOutcome runMachine(Machine& machine, QuantumPolicy& policy,
                      RunLimits limits) {
  RunCursor cursor;
  while (stepQuantum(machine, policy, limits, cursor)) {
  }
  return runOutcome(machine);
}

}  // namespace dike::sim
