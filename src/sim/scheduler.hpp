#pragma once
/// \file scheduler.hpp
/// The contract between the simulation engine and on-line scheduling
/// heuristics.  Each slot where assignable work and spare master bandwidth
/// exist, the engine runs one "round": it presents a snapshot of every
/// processor and asks the heuristic, task instance by task instance, which
/// UP processor the instance should go to — mirroring the one-by-one greedy
/// assignment of Section 6.
///
/// Every round of one engine run carries the same SchedView::run.  One
/// scheduler may serve many runs in turn, so state it computes once per
/// run is keyed on `run` — never on the view's address, which is a stack
/// slot the engine reuses from run to run.

#include <cstdint>
#include <span>
#include <string_view>

#include "markov/chain.hpp"
#include "markov/state.hpp"
#include "sim/platform.hpp"
#include "util/rng.hpp"

namespace volsched::sim {

/// Per-processor snapshot visible to heuristics.
struct ProcView {
    markov::ProcState state = markov::ProcState::Down;
    /// Whether the processor holds a complete copy of the program.
    bool has_program = false;
    /// Whether it can accept a new staged task (buffer rule of Section 3.3:
    /// at most one task beyond the one being computed).
    bool buffer_free = true;
    /// w_q, UP slots per task.
    int w = 1;
    /// Delay(q) of Section 6.3.1: estimated slots before the processor
    /// finishes its committed program/data/compute work, assuming it stays
    /// UP and communication is contention-free.
    int delay = 0;
    /// The availability chain this processor is believed to follow (the true
    /// chain in Markov experiments, a fitted chain in trace replays).  Null
    /// when the run is deliberately uninformed.
    const markov::MarkovChain* belief = nullptr;

    friend bool operator==(const ProcView&, const ProcView&) = default;
};

/// Snapshot of the whole round.
struct SchedView {
    const Platform* platform = nullptr;
    std::span<const ProcView> procs;
    long long slot = 0;
    /// Number of distinct processors already assigned >= 1 instance in this
    /// round (the `nactive` counter of the starred heuristics, Section 6.3.1).
    int nactive = 0;
    /// Original task instances still to assign in this round (m - m').
    int remaining_tasks = 0;
    /// The engine run presenting this view: nonzero, taken from a
    /// process-wide counter by every run, and only ever compared for
    /// equality (its value never reaches a result).  While it is unchanged
    /// the platform, procs.size() and every ProcView's `belief` and `w`
    /// are unchanged.  0 in hand-built views, which promise nothing.
    std::uint64_t run = 0;
};

/// Cumulative memoization counters a scheduler may expose (heuristics
/// backed by a markov::ExpectationCache).  Purely observational: the
/// cached and uncached paths compute bit-identical scores, so these
/// numbers describe efficiency, never results.  Cumulative over the
/// scheduler's lifetime; the engine reports per-run deltas in RunMetrics.
struct SchedulerCounters {
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_invalidations = 0;
};

/// On-line scheduling heuristic.  Implementations must be deterministic
/// given the provided RNG (all randomness must come from `rng`).  One
/// instance may serve several runs in turn, and each run's decisions must
/// be those a fresh instance would make.
class Scheduler {
public:
    virtual ~Scheduler() = default;

    /// Called once at the start of each assignment round.
    virtual void begin_round(const SchedView& view) { (void)view; }

    /// Chooses a processor for the next task instance among `eligible`
    /// (indices into view.procs, all in the UP state).  `nq[q]` is the
    /// number of instances already assigned to processor q in this round.
    /// Must return one of the eligible indices.
    virtual ProcId select(const SchedView& view,
                          std::span<const ProcId> eligible,
                          std::span<const int> nq, util::Rng& rng) = 0;

    /// Stable identifier used in reports ("emct*", "random2w", ...).
    [[nodiscard]] virtual std::string_view name() const = 0;

    /// Cumulative memoization counters (zeros for heuristics with no
    /// cache).  Wrappers must forward to the scheduler that actually
    /// scores.
    [[nodiscard]] virtual SchedulerCounters counters() const { return {}; }
};

} // namespace volsched::sim
