#pragma once
/// \file policy.hpp
/// The checkpoint/restart layer's contract with the simulation engine.
///
/// The paper's execution model is crash-lose-everything: a newly DOWN
/// worker loses program, staged data, and partial computation (Section 3.2),
/// and RunMetrics::wasted_compute_slots shows how much compute that burns.
/// Checkpointing is the classic mitigation (the Section 8 outlook, and the
/// Young/Daly line of work): while a worker computes, a policy may decide to
/// upload a snapshot of the task's progress to the master.  The upload
/// occupies one of the master's `ncom` transfer slots for
/// EngineConfig::checkpoint_cost slot-units — checkpoints compete with
/// program and data transfers for bandwidth — and the worker's computation
/// pauses while its snapshot is in flight (the classic checkpoint
/// overhead).  Once committed, the snapshot lives at the master: when a
/// crash sends the task back to the pool, its next original incarnation
/// resumes from the committed progress instead of from scratch, on
/// whichever worker recommits it (progress is stored as a fraction of the
/// task, so a restart on a worker with a different speed w_q translates
/// it).  Speculative replicas always start from scratch — snapshots exist
/// to shorten the post-crash redo, not to hand extra copies a head start.
///
/// Policies are consulted once per slot per eligible worker (UP, computing,
/// no snapshot already in flight, task not about to finish) and must be
/// pure functions of the CheckpointView: no internal state, no RNG.  That
/// keeps the engine's determinism contract intact — for a fixed seed the
/// availability realization, and with `none` the entire action trace, are
/// bit-identical to a run without the checkpoint layer.
///
/// Built-in policies (src/ckpt/policies.cpp; `volsched_sim
/// --list-checkpoints` prints them):
///
///   none            never checkpoint (the paper's model; the default)
///   periodic(k=K)   checkpoint after every K compute slots
///   daly            Young/Daly interval sqrt(2 * C * M) with C the
///                   checkpoint cost and M the belief chain's mean time to
///                   DOWN (MarkovChain::mean_time_to_down, solved once per
///                   chain); uninformed workers never checkpoint
///   risk(percent=P) checkpoint when the belief chain's probability of
///                   entering DOWN before the task's next completion
///                   boundary (markov::p_ud_exact over the remaining slots)
///                   exceeds P percent

#include <limits>
#include <string_view>

#include "markov/chain.hpp"

namespace volsched::ckpt {

/// Per-decision snapshot handed to a policy: one worker, one slot.
struct CheckpointView {
    /// The availability chain this worker is believed to follow, or null
    /// when the run is uninformed (belief-based policies then never fire).
    const markov::MarkovChain* belief = nullptr;
    /// Master transfer slot-units one checkpoint upload costs
    /// (EngineConfig::checkpoint_cost).
    int cost = 1;
    /// w_q: UP slots this worker needs for a whole task.
    int w = 1;
    /// Compute slots accumulated since the last snapshot (committed or
    /// currently in flight) — the progress a crash would lose right now.
    int computed = 0;
    /// Compute slots still needed before the task completes on this worker.
    int remaining = 0;
    /// Current simulation slot.
    long long slot = 0;
};

/// A checkpoint decision rule.  Implementations must be deterministic,
/// stateless functions of the view (see the file comment).
class CheckpointPolicy {
public:
    virtual ~CheckpointPolicy() = default;

    /// True when the worker should start uploading a snapshot this slot.
    [[nodiscard]] virtual bool
    should_checkpoint(const CheckpointView& view) const = 0;

    /// Sentinel quiet_horizon() meaning "never fires under this view's
    /// arithmetic advancement".
    static constexpr long long kQuietForever =
        std::numeric_limits<long long>::max();

    /// Lower bound on how long this policy stays quiet: the engine's
    /// event-driven core asks for an h >= 0 such that should_checkpoint is
    /// guaranteed false for every view reachable from `view` by k < h
    /// uninterrupted compute slots (computed += k, remaining -= k,
    /// slot += k; belief/cost/w fixed).  h == 0 means "consult me every
    /// slot" — always safe, and the default, so stateful-looking custom
    /// policies cost elision, never correctness.  Audit mode re-checks the
    /// promise by replaying should_checkpoint over every elided slot.
    [[nodiscard]] virtual long long
    quiet_horizon(const CheckpointView& view) const {
        (void)view;
        return 0;
    }

    /// Stable identifier used in reports ("none", "periodic", "daly", ...).
    [[nodiscard]] virtual std::string_view name() const = 0;
};

} // namespace volsched::ckpt
