#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "ckpt/policy.hpp"
#include "markov/expectation.hpp"
#include "util/rng.hpp"

namespace volsched::sim {
namespace {

using markov::ProcState;

enum class InstKind : std::uint8_t { Original, Replica };
enum class InstStatus : std::uint8_t { Pool, Committed, Done, Cancelled };

/// One copy of one logical task (original or replica).
struct Instance {
    int logical = -1;
    InstKind kind = InstKind::Original;
    InstStatus status = InstStatus::Pool;
    ProcId proc = kNoProc;     ///< worker holding this instance (committed)
    ProcId planned = kNoProc;  ///< sticky-plan target while still in pool
    long long plan_seq = -1;   ///< order in which the plan chose this instance
    int data_remaining = 0;
    bool data_started = false;
    bool data_done = false;
    long long commit_slot = -1;
};

/// One worker's runtime protocol state: a plain record per processor, used
/// by reference.  The slot phases that touch a worker read several of its
/// fields together, and the whole record fits one 64-byte cache line.
struct Worker {
    ProcState state = ProcState::Up;
    bool has_program = false;
    bool prog_in_flight = false;
    bool ckpt_in_flight = false; ///< checkpoint upload in progress
    int prog_remaining = 0;
    int staged = -1;    ///< instance receiving / holding next data
    int computing = -1; ///< instance with complete data, computing
    int compute_remaining = 0;
    // Checkpoint upload state (only touched when a policy is attached).
    int ckpt_remaining = 0; ///< transfer slots left for the upload
    int ckpt_progress = 0;  ///< q-scale progress the upload captured
    int since_ckpt = 0;     ///< compute slots since the last snapshot
    int compute_credit = 0; ///< q-scale progress at promotion
    int ckpt_committed = 0; ///< q-scale progress of the last snapshot
                            ///< THIS incarnation committed
    long long prog_start = -1;
    long long data_start = -1;
    long long ckpt_start = -1; ///< upload start slot (FIFO key)
};

/// Per-logical-task checkpoint committed at the master: `done` compute
/// slots on the scale of the snapshotting worker's `w`.  A restart on a
/// worker with speed w' is credited floor(done * w' / w) slots.
struct TaskCheckpoint {
    int done = 0;
    int w = 1;
};

/// Entry of the bandwidth FIFO, keyed (start, proc, kind).  A worker has at
/// most one transfer of each kind in flight, so the key is unique; kind
/// breaks (start, proc) ties when one worker both receives data and uploads
/// a checkpoint started in the same slot.
enum class TransferKind : std::uint8_t { Prog, Data, Ckpt };
struct ActiveTransfer {
    long long start;
    ProcId proc;
    TransferKind kind;

    friend bool operator==(const ActiveTransfer&,
                           const ActiveTransfer&) = default;
    friend bool operator<(const ActiveTransfer& a, const ActiveTransfer& b) {
        if (a.start != b.start) return a.start < b.start;
        if (a.proc != b.proc) return a.proc < b.proc;
        return a.kind < b.kind;
    }
};

/// What forces the event-driven core to simulate a slot normally.
enum class EventCause : std::uint8_t {
    Horizon,     ///< EngineConfig::max_slots
    StateChange, ///< an availability RLE segment ends
    Transfer,    ///< an advancing program/data/checkpoint transfer drains
    Checkpoint,  ///< a checkpoint policy's quiet horizon expires
    Compute,     ///< a computing worker's task reaches completion
};

/// The event-driven core's frontier of (slot, event) candidates.
/// Conceptually a priority queue ordered by slot; since any simulated slot
/// can invalidate every queued prediction (a crash reshuffles the transfer
/// queue, a heuristic round commits new work), entries are re-derived at
/// each decision point and only the minimum is ever popped — so the queue
/// keeps just the running minimum instead of a heap.
struct EventQueue {
    long long slot;
    EventCause cause;

    explicit EventQueue(long long horizon) noexcept
        : slot(horizon), cause(EventCause::Horizon) {}

    void push(long long s, EventCause c) noexcept {
        if (s < slot) {
            slot = s;
            cause = c;
        }
    }
};

/// A fresh SchedView::run: nonzero and unique in the process.  Runs on
/// several threads draw concurrently; the value is only compared for
/// equality, so the draw order never reaches a result.
std::uint64_t next_run_id() {
    static std::atomic<std::uint64_t> last{0};
    return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

class Runner {
public:
    Runner(const Platform& platform, markov::RealizedTraces& traces,
           const std::vector<markov::MarkovChain>& beliefs,
           const EngineConfig& config, std::uint64_t seed)
        : pf_(platform), config_(config), run_id_(next_run_id()) {
        const int p = pf_.size();
        workers_.resize(static_cast<std::size_t>(p));
        due_flag_.assign(static_cast<std::size_t>(p), 0);
        views_.resize(static_cast<std::size_t>(p));
        view_stale_.assign(static_cast<std::size_t>(p), 0);
        nq_.assign(static_cast<std::size_t>(p), 0);
        // Every worker's state is read at slot 0.
        change_at_.assign(static_cast<std::size_t>(p), 0);
        up_since_.assign(static_cast<std::size_t>(p), 0);
        cursors_.reserve(p);
        for (int q = 0; q < p; ++q)
            cursors_.emplace_back(traces.trace(q));
        sched_rng_ = util::Rng(util::mix_seed(seed, 0x53434845ULL));
        beliefs_ = beliefs.empty() ? nullptr : &beliefs;
    }

    RunMetrics run(Scheduler& sched) {
        start_iteration();
        metrics_.per_proc.assign(static_cast<std::size_t>(pf_.size()), {});
        row_.assign(static_cast<std::size_t>(pf_.size()), {});
        for (EngineObserver* o : config_.observers) o->begin_run(pf_);
        long long t = 0;
        while (t < config_.max_slots) {
            // A realization that starts with every worker absent: do slot
            // 0's bookkeeping in closed form and skip the whole stretch
            // (both cores; historically the `t > 0` guard below made the
            // engine walk slot 0 of such a stretch).
            if (t == 0 && (config_.event_driven || config_.skip_dead_slots) &&
                try_skip_initial_dead(t))
                continue;
            if (config_.event_driven) {
                // Event-driven core: jump to the next candidate event and
                // advance the provably-inert slots in between
                // arithmetically.  Stretches shorter than kMinJump are not
                // worth a fast_forward's setup (except dead ones, whose
                // skip count must match the slot loop's) — they run through
                // the normal phases below, and known_inert_until_ remembers
                // the horizon so the prediction is not recomputed per slot.
                if (t > 0 && t >= known_inert_until_) {
                    const long long ev = steady_horizon(t);
                    if (ev - t >= kMinJump || (ev > t && up_count_ == 0)) {
                        fast_forward(t, ev);
                        metrics_.slots_elided += ev - t;
                        if (config_.audit) audit_incremental(ev - 1);
                        t = ev;
                        continue;
                    }
                    known_inert_until_ = ev;
                }
            } else if (config_.skip_dead_slots && t > 0 && up_count_ == 0) {
                // Dead-stretch fast-forward: with every worker DOWN or
                // RECLAIMED nothing can transfer, compute, or complete, so
                // the slot loop is a no-op until some processor changes
                // state; fast_forward reports the stretch to observers.
                const long long change = next_state_change(t - 1);
                if (change > t) {
                    fast_forward(t, change);
                    if (config_.audit) audit_incremental(change - 1);
                    t = change;
                    continue;
                }
            }
            slot_ = t;
            advance_states(t);
            int budget = pf_.ncom;
            transfers_this_slot_ = 0;
            advance_in_flight(budget);
            start_pending_data(t, budget);
            start_checkpoints(t, budget);
            plan_and_commit(sched, t, budget);
            advance_compute();
            if (config_.audit) audit_bandwidth();
            if (!config_.observers.empty())
                publish_row([&](EngineObserver& o) { o.on_slot(t, row_); });
            const bool finished = end_of_slot(t);
            if (config_.audit) {
                audit_invariants();
                audit_incremental(t);
            }
            if (finished) {
                metrics_.completed = true;
                metrics_.makespan = t + 1;
                metrics_.iterations_completed = config_.iterations;
                settle_up_slots(t + 1);
                for (EngineObserver* o : config_.observers) o->end_run(t + 1);
                return metrics_;
            }
            ++t;
        }
        metrics_.completed = false;
        metrics_.makespan = config_.max_slots;
        metrics_.iterations_completed = iterations_done_;
        settle_up_slots(config_.max_slots);
        for (EngineObserver* o : config_.observers)
            o->end_run(config_.max_slots);
        return metrics_;
    }

private:
    // ---- iteration bookkeeping ---------------------------------------

    void start_iteration() {
        const int m = config_.tasks_per_iteration;
        logical_done_.assign(m, false);
        logical_live_.assign(m, 1);
        remaining_logical_ = m;
        instances_.clear();
        instances_.reserve(static_cast<std::size_t>(m) * 2);
        for (int i = 0; i < m; ++i) {
            Instance inst;
            inst.logical = i;
            inst.kind = InstKind::Original;
            inst.data_remaining = pf_.t_data;
            instances_.push_back(inst);
        }
        ckpt_store_.assign(static_cast<std::size_t>(m), {});
        plan_counter_ = 0;
        pool_.resize(static_cast<std::size_t>(m));
        std::iota(pool_.begin(), pool_.end(), 0);
    }

    // ---- slot phases --------------------------------------------------

    /// Phase 1: worker states advance.  Each worker's change slot is where
    /// its RLE segment ends as far as it was realized when read, so a slot
    /// before their minimum changes nothing.  At any other slot (at slot 0,
    /// all workers are due) one scan in processor order re-reads the
    /// workers whose change slot has come, and eligible_ follows their
    /// transitions.  A worker's UP slots are added when it leaves UP (and
    /// by settle_up_slots at the run's end), not per slot.
    void advance_states(long long t) {
        if (t < next_change_) return;
        long long next_change = std::numeric_limits<long long>::max();
        for (int q = 0; q < pf_.size(); ++q) {
            if (change_at_[q] <= t) {
                const ProcState prev = workers_[q].state;
                const ProcState next = cursors_[q].state_at(t);
                change_at_[q] = cursors_[q].segment_end();
                if (t == 0 || next != prev) // else the segment only grew
                    change_state(q, t, prev, next);
            }
            next_change = std::min(next_change, change_at_[q]);
        }
        next_change_ = next_change;
        up_count_ = static_cast<int>(eligible_.size());
    }

    /// Worker q's availability goes from `prev` to `next` at slot t (at
    /// slot 0, from nothing).
    void change_state(ProcId q, long long t, ProcState prev, ProcState next) {
        workers_[q].state = next;
        mark_view(q);
        if (t > 0 && prev == ProcState::Up) {
            eligible_.erase(
                std::lower_bound(eligible_.begin(), eligible_.end(), q));
            metrics_.per_proc[q].up_slots += t - up_since_[q];
        } else if (next == ProcState::Up) {
            eligible_.insert(
                std::lower_bound(eligible_.begin(), eligible_.end(), q), q);
            up_since_[q] = t;
        }
        emit(EventKind::StateChange, q, -1, false, next);
        if (next == ProcState::Down) {
            ++metrics_.down_events;
            ++metrics_.per_proc[q].down_events;
            handle_down(q);
        }
    }

    /// Adds the UP slots of the workers still UP when the run ends at
    /// `end` (its makespan).
    void settle_up_slots(long long end) {
        for (const ProcId q : eligible_)
            metrics_.per_proc[q].up_slots += end - up_since_[q];
    }

    /// First slot after `s` at which some worker's availability state
    /// changes, capped at the horizon.
    long long next_state_change(long long s) {
        long long change = config_.max_slots;
        for (int q = 0; q < pf_.size(); ++q)
            change = std::min(change, cursors_[q].next_change_at(s, change));
        return change;
    }

    /// Slot-0 companion to the dead-stretch fast-forward: when the
    /// realization starts with every worker DOWN or RECLAIMED, slot 0's
    /// only observable work is the initial StateChange emission and the
    /// DOWN accounting (nothing is committed yet, so handle_down has
    /// nothing to release).  Perform exactly that bookkeeping, then skip
    /// the stretch like any other dead range.  Returns false when some
    /// worker starts UP (the normal loop then runs slot 0).
    bool try_skip_initial_dead(long long& t) {
        for (int q = 0; q < pf_.size(); ++q)
            if (cursors_[q].state_at(0) == ProcState::Up) return false;
        const long long change = next_state_change(0);
        slot_ = 0;
        advance_states(0);
        fast_forward(0, change);
        if (config_.event_driven) metrics_.slots_elided += change;
        if (config_.audit) audit_incremental(change - 1);
        t = change;
        return true;
    }

    // ---- event-driven core ---------------------------------------------

    /// Returns the first slot >= t that must be simulated normally.  Every
    /// slot in [t, result) is provably inert: worker states are constant
    /// (the RLE cursors bound the next availability transition), the same
    /// transfers advance without draining, no data transfer can start, no
    /// checkpoint policy fires, no computation completes, and the
    /// plan/commit phase would not act (a heuristic round may consume RNG,
    /// so any slot that reaches one is simulated).  Conservative by
    /// construction — any doubt returns t.  The stretch's transfer
    /// allocation is the first ncom UP entries of the bandwidth FIFO, which
    /// no inert slot reorders.
    long long steady_horizon(long long t) {
        // Bandwidth allocation for the stretch: the first ncom transfers
        // to/from UP workers advance, and the leftover budget feeds the
        // act-now checks.
        int advancing = 0;
        for (const ActiveTransfer& tr : fifo_) {
            if (advancing == pf_.ncom) break;
            if (workers_[tr.proc].state == ProcState::Up) ++advancing;
        }
        const int budget = pf_.ncom - advancing;

        // Scheduler decision point this slot?  Checked first: in dense
        // phases this is the common exit.
        if (plan_would_act(budget)) return t;

        // A deferred data start (phase 2b) acts as soon as bandwidth is
        // free — or instantly when data is free.
        if (budget > 0 || pf_.t_data == 0)
            for (const ProcId q : waiting_)
                if (workers_[q].state == ProcState::Up) return t;

        EventQueue next(config_.max_slots);

        // Availability transitions: worker states at t must equal the
        // states held since slot t-1, and the stretch ends where the first
        // RLE segment does.
        for (int q = 0; q < pf_.size(); ++q) {
            const long long change =
                cursors_[q].next_change_at(t - 1, next.slot);
            if (change <= t) return t;
            next.push(change, EventCause::StateChange);
        }

        // Transfer completions: each advancing transfer drains to zero —
        // and must be simulated — in slot t + remaining - 1.  min_rem over
        // ALL transfers to/from UP workers lower-bounds the remainder of
        // the advancing subset, so the pushed slot is at or before the true
        // first drain (a conservative, still-inert cap).
        if (advancing > 0) {
            int min_rem = std::numeric_limits<int>::max();
            for (const ActiveTransfer& tr : fifo_)
                if (workers_[tr.proc].state == ProcState::Up)
                    min_rem = std::min(min_rem, remaining(tr));
            if (min_rem <= 1) return t;
            next.push(t + min_rem - 1, EventCause::Transfer);
        }

        // Checkpoint decisions (phase 2b'): with no bandwidth and a
        // nonzero cost the phase returns before any side effect; otherwise
        // every eligible worker is consulted every slot, so ask the policy
        // how long it is guaranteed to stay quiet under arithmetic
        // advancement.
        if (config_.checkpoint &&
            (config_.checkpoint_cost == 0 || budget > 0)) {
            for (const ProcId q : eligible_) {
                const Worker& w = workers_[q];
                if (w.computing == -1 || w.ckpt_in_flight) continue;
                // A worker with since_ckpt == 0 is first consulted one
                // slot later (after one slot of the stretch has computed).
                const int lead = w.since_ckpt > 0 ? 0 : 1;
                ckpt::CheckpointView view;
                view.belief = beliefs_ ? &(*beliefs_)[q] : nullptr;
                view.cost = config_.checkpoint_cost;
                view.w = pf_.w[q];
                view.computed = w.since_ckpt + lead;
                view.remaining = w.compute_remaining - lead;
                view.slot = t + lead;
                if (view.remaining <= 0) continue; // completion comes first
                const long long quiet =
                    config_.checkpoint->quiet_horizon(view);
                // quiet may be kQuietForever: compare without adding lead.
                if (quiet <= -static_cast<long long>(lead)) return t;
                if (quiet < config_.max_slots - t - lead)
                    next.push(t + lead + quiet, EventCause::Checkpoint);
            }
        }

        // Compute completions: an advancing computation drains to zero —
        // and completes — in slot t + remaining - 1.
        for (const ProcId q : eligible_) {
            const Worker& w = workers_[q];
            if (w.computing == -1 || w.ckpt_in_flight) continue;
            if (w.compute_remaining <= 1) return t;
            next.push(t + w.compute_remaining - 1, EventCause::Compute);
        }
        return next.slot;
    }

    /// Mirrors plan_and_commit's control flow without side effects: true
    /// when the phase would mutate state, consult the scheduler, or consume
    /// heuristic RNG this slot, given `budget` bandwidth units left over
    /// from the earlier phases.  Every input read here is constant across a
    /// steady stretch, so a false answer holds for the whole stretch.
    [[nodiscard]] bool plan_would_act(int budget) {
        if (proactive_would_act()) return true;
        if (budget == 0 && pf_.t_data > 0) return false;
        // With no worker present nothing plans, commits, or replicates
        // (may_replicate needs up_count_ > remaining_logical_ >= 0 and the
        // commit sweep needs an UP target), so the phase is inert.
        if (up_count_ == 0) return false;
        const bool may_replicate =
            config_.replica_cap > 0 && up_count_ > remaining_logical_;
        // A heuristic round runs: begin_round plus RNG-consuming selects.
        if (may_replicate) return true;
        // Non-passive classes re-plan every round: any pool instance means
        // a round runs.
        if (pool_.empty()) return false;
        if (config_.plan_class != SchedulerClass::Passive) return true;
        for (const int id : pool_)
            if (instances_[id].planned == kNoProc) return true;
        // Passive with every pool instance planned: only the commit sweep
        // remains.  It acts exactly when some planned target is UP with a
        // free buffer and the bandwidth/zero-cost rules let a transfer (or
        // a stage-behind-program) start.
        if (budget == 0 && pf_.t_data > 0 && pf_.t_prog > 0) return false;
        for (const int id : pool_) {
            const Worker& w = workers_[instances_[id].planned];
            if (w.state != ProcState::Up || w.staged != -1) continue;
            if (w.has_program) {
                if (pf_.t_data == 0 || budget > 0) return true;
            } else if (w.prog_in_flight) {
                return true; // stages behind the in-flight program, free
            } else if (pf_.t_prog == 0) {
                // Enrolment is free; the earlier guards ensure the data
                // path can start too (budget > 0 or t_data == 0).
                return true;
            } else if (budget > 0) {
                return true;
            }
        }
        return false;
    }

    /// True when proactive_reassess would un-enrol a worker this slot — or
    /// when its decision inputs could drift across an otherwise-steady
    /// stretch (an idle UP worker's in-flight program download drains,
    /// shrinking the best idle alternative slot by slot).
    [[nodiscard]] bool proactive_would_act() const {
        if (config_.plan_class != SchedulerClass::Proactive || !beliefs_)
            return false;
        double best_alt = std::numeric_limits<double>::infinity();
        bool drifting = false;
        for (const ProcId q : eligible_) {
            const Worker& w = workers_[q];
            if (w.staged != -1 || w.computing != -1) continue;
            if (!w.has_program && w.prog_in_flight) drifting = true;
            const double need =
                (w.has_program
                     ? 0.0
                     : static_cast<double>(w.prog_in_flight ? w.prog_remaining
                                                            : pf_.t_prog)) +
                pf_.t_data + pf_.w[q];
            best_alt = std::min(
                best_alt, markov::e_workload((*beliefs_)[q].matrix(), need));
        }
        if (std::isinf(best_alt)) return false;
        for (int q = 0; q < pf_.size(); ++q) {
            const Worker& w = workers_[q];
            if (w.state != ProcState::Reclaimed) continue;
            if (w.staged == -1 && w.computing == -1) continue;
            if (drifting) return true; // conservatively simulate the slot
            const auto& m = (*beliefs_)[q].matrix();
            const double p_rr = m.p_rr();
            if (p_rr >= 1.0) continue;
            const double expected_return = 1.0 / (1.0 - p_rr);
            int remaining = 0;
            if (w.computing != -1) remaining += w.compute_remaining;
            if (w.staged != -1)
                remaining += instances_[w.staged].data_remaining + pf_.w[q];
            if (best_alt < expected_return + markov::e_workload(m, remaining))
                return true;
        }
        return false;
    }

    /// Advances the steady stretch [from, to) arithmetically: states are
    /// frozen, the first ncom transfers to/from UP workers in the FIFO and
    /// every unobstructed computation drain one unit per slot (none to
    /// zero, so the FIFO keeps its entries and order), the drained units
    /// leave the workers' view delays, and observers receive the stretch's
    /// one activity row through one on_inert call.  Precondition:
    /// steady_horizon(from) >= to.  With no worker UP this is the
    /// dead-stretch skip of both cores: the row holds no activity, and the
    /// stretch counts in dead_slots_skipped.  Callers count slots_elided.
    void fast_forward(long long from, long long to) {
        const long long n = to - from;
        if (config_.audit) audit_steady_range(from, to);
        int advancing = 0;
        for (const ActiveTransfer& tr : fifo_) {
            if (advancing == pf_.ncom) break;
            Worker& w = workers_[tr.proc];
            if (w.state != ProcState::Up) continue;
            ++advancing;
            views_[tr.proc].delay -= static_cast<int>(n);
            if (tr.kind == TransferKind::Prog) {
                w.prog_remaining -= static_cast<int>(n);
                row_[tr.proc].recv = -2;
            } else if (tr.kind == TransferKind::Data) {
                instances_[w.staged].data_remaining -= static_cast<int>(n);
                row_[tr.proc].recv = instances_[w.staged].logical;
            } else {
                w.ckpt_remaining -= static_cast<int>(n);
                row_[tr.proc].ckpt = true;
                metrics_.checkpoint_slots += n;
                continue;
            }
            metrics_.per_proc[tr.proc].transfer_slots += n;
            metrics_.transfer_slots += n;
        }
        for (const ProcId q : eligible_) {
            Worker& w = workers_[q];
            if (w.computing == -1 || w.ckpt_in_flight) continue;
            w.compute_remaining -= static_cast<int>(n);
            views_[q].delay -= static_cast<int>(n);
            w.since_ckpt += static_cast<int>(n);
            metrics_.compute_slots += n;
            metrics_.per_proc[q].compute_slots += n;
            row_[q].compute = instances_[w.computing].logical;
        }
        if (up_count_ == 0) metrics_.dead_slots_skipped += n;
        if (!config_.observers.empty())
            publish_row([&](EngineObserver& o) {
                o.on_inert(from, to, up_count_ == 0, row_);
            });
    }

    /// Audit-mode re-verification of an elided range: replays the stretch's
    /// premises slot by slot against the realized trace, the drain
    /// arithmetic, and the checkpoint policy's actual should_checkpoint.
    void audit_steady_range(long long from, long long to) {
        const long long n = to - from;
        for (int q = 0; q < pf_.size(); ++q) {
            const Worker& w = workers_[q];
            for (long long s = from; s < to; ++s)
                if (cursors_[q].state_at(s) != w.state)
                    throw std::logic_error(
                        "audit: elided range crossed a state change");
        }
        int advancing = 0;
        for (const ActiveTransfer& tr : fifo_) {
            if (advancing == pf_.ncom) break;
            if (workers_[tr.proc].state != ProcState::Up) continue;
            ++advancing;
            if (remaining(tr) <= n)
                throw std::logic_error(
                    "audit: event elision crossed a transfer completion");
        }
        const int budget = pf_.ncom - advancing;
        const bool consults = config_.checkpoint &&
                              (config_.checkpoint_cost == 0 || budget > 0);
        for (int q = 0; q < pf_.size(); ++q) {
            const Worker& w = workers_[q];
            if (w.state != ProcState::Up || w.computing == -1 ||
                w.ckpt_in_flight)
                continue;
            if (w.compute_remaining <= n)
                throw std::logic_error(
                    "audit: event elision crossed a compute completion");
            if (!consults) continue;
            for (long long k = 0; k < n; ++k) {
                const int computed = w.since_ckpt + static_cast<int>(k);
                const int remaining =
                    w.compute_remaining - static_cast<int>(k);
                if (computed <= 0 || remaining <= 0) continue;
                ckpt::CheckpointView view;
                view.belief = beliefs_ ? &(*beliefs_)[q] : nullptr;
                view.cost = config_.checkpoint_cost;
                view.w = pf_.w[q];
                view.computed = computed;
                view.remaining = remaining;
                view.slot = from + k;
                if (config_.checkpoint->should_checkpoint(view))
                    throw std::logic_error(
                        "audit: event elision crossed a checkpoint "
                        "decision");
            }
        }
    }

    /// DOWN semantics (Section 3.2): lose the program, staged data, and
    /// partial computation.  Original instances go back to the pool (to be
    /// resent from scratch); replicas are simply cancelled.
    void handle_down(ProcId q) {
        Worker& w = workers_[q];
        if (w.prog_in_flight) {
            metrics_.wasted_transfer_slots += pf_.t_prog - w.prog_remaining;
            if (w.prog_remaining > 0)
                fifo_erase({w.prog_start, q, TransferKind::Prog});
            w.prog_in_flight = false;
            w.prog_remaining = 0;
            w.prog_start = -1;
        } else if (w.has_program) {
            // A resident program lost to a crash must be resent in full.
            metrics_.wasted_transfer_slots += pf_.t_prog;
        }
        w.has_program = false;
        if (w.staged != -1) {
            emit(EventKind::WorkLost, q, instances_[w.staged].logical,
                 instances_[w.staged].kind == InstKind::Replica);
            release_instance(w.staged, /*to_pool=*/true);
        }
        if (w.computing != -1) {
            emit(EventKind::WorkLost, q, instances_[w.computing].logical,
                 instances_[w.computing].kind == InstKind::Replica);
            release_instance(w.computing, /*to_pool=*/true);
        }
        // Sticky plans targeting a crashed processor are invalidated.
        if (config_.plan_class == SchedulerClass::Passive) {
            for (const int id : pool_)
                if (instances_[id].planned == q)
                    instances_[id].planned = kNoProc;
        }
    }

    /// Detaches a committed instance from its worker, accounting for the
    /// wasted work.  Originals return to the pool when `to_pool`; replicas
    /// are always cancelled (the pool only ever holds originals).
    void release_instance(int id, bool to_pool) {
        Instance& inst = instances_[id];
        const ProcId q = inst.proc;
        Worker& w = workers_[q];
        mark_view(q); // frees the buffer or the compute slot
        if (inst.data_started)
            metrics_.wasted_transfer_slots += pf_.t_data - inst.data_remaining;
        if (w.computing == id) {
            if (w.ckpt_in_flight) {
                // The upload's subject is gone; the spent bandwidth is lost.
                metrics_.wasted_transfer_slots +=
                    config_.checkpoint_cost - w.ckpt_remaining;
                if (w.ckpt_remaining > 0)
                    fifo_erase({w.ckpt_start, q, TransferKind::Ckpt});
                w.ckpt_in_flight = false;
                w.ckpt_remaining = 0;
                w.ckpt_start = -1;
                w.ckpt_progress = 0;
                emit(EventKind::CheckpointLost, q, inst.logical,
                     inst.kind == InstKind::Replica);
            }
            // Lost progress: only the work THIS incarnation computed counts
            // (its initial credit was computed by an earlier incarnation),
            // and only the part it committed to the master survives.  A
            // cancelled sibling of a completed task preserves nothing — its
            // snapshots have no future incarnation to serve.
            const int progress = pf_.w[q] - w.compute_remaining;
            const int own = progress - w.compute_credit;
            const int preserved =
                to_pool ? std::clamp(w.ckpt_committed - w.compute_credit, 0,
                                     own)
                        : 0;
            metrics_.wasted_compute_slots += own - preserved;
            w.computing = -1;
            w.compute_remaining = 0;
            w.since_ckpt = 0;
            w.compute_credit = 0;
            w.ckpt_committed = 0;
            // The freed compute slot may make a data-complete staged task
            // promotable this very slot (a sibling cancelled in the
            // completion pass).
            mark_due(q);
        }
        if (w.staged == id) {
            if (inst.data_started && inst.data_remaining > 0)
                fifo_erase({w.data_start, q, TransferKind::Data});
            else if (!inst.data_started)
                unwait(q);
            w.staged = -1;
            w.data_start = -1;
        }
        inst.proc = kNoProc;
        inst.planned = kNoProc;
        inst.plan_seq = -1;
        inst.commit_slot = -1;
        inst.data_started = false;
        inst.data_done = false;
        inst.data_remaining = pf_.t_data;
        if (to_pool && inst.kind == InstKind::Original) {
            inst.status = InstStatus::Pool;
            pool_.insert(std::lower_bound(pool_.begin(), pool_.end(), id),
                         id);
        } else {
            inst.status = InstStatus::Cancelled;
            --logical_live_[inst.logical];
        }
    }

    // ---- bandwidth FIFO and due list ------------------------------------

    /// The transfer a FIFO entry stands for: its remaining slot-units.
    [[nodiscard]] int& remaining(const ActiveTransfer& tr) {
        Worker& w = workers_[tr.proc];
        if (tr.kind == TransferKind::Prog) return w.prog_remaining;
        if (tr.kind == TransferKind::Data)
            return instances_[w.staged].data_remaining;
        return w.ckpt_remaining;
    }

    /// Files a transfer that starts this slot with slot-units left.  Its
    /// start is the current slot, so it lands in the FIFO's tail, among the
    /// other transfers started this slot in (proc, kind) order.
    void fifo_insert(const ActiveTransfer& tr) {
        fifo_.insert(std::upper_bound(fifo_.begin(), fifo_.end(), tr), tr);
    }

    /// Drops a cancelled transfer (crash, sibling cancellation, proactive
    /// un-enrolment) that still had slot-units left.
    void fifo_erase(const ActiveTransfer& tr) {
        const auto it = std::lower_bound(fifo_.begin(), fifo_.end(), tr);
        if (it != fifo_.end() && *it == tr) fifo_.erase(it);
    }

    /// Drops worker q from the data-waiting list (its data started, or its
    /// staged task went away).  No-op when q is not on it.
    void unwait(ProcId q) {
        const auto it = std::find(waiting_.begin(), waiting_.end(), q);
        if (it != waiting_.end()) waiting_.erase(it);
    }

    /// Puts worker q on this slot's due list: something happened to it that
    /// end_of_slot may have to materialize (and end_of_slot marks its view
    /// row after its pass).
    void mark_due(ProcId q) {
        if (due_flag_[q]) return;
        due_flag_[q] = 1;
        due_.push_back(q);
    }

    /// Notes that worker q's scheduler-view row is stale; the next round
    /// rebuilds it.  The contract that keeps every other row exact: every
    /// write to a view input (state, has_program, staged, and the counters
    /// behind Delay(q)) either decrements the row's delay in step — a
    /// program, data, checkpoint or compute counter draining one unit per
    /// slot, or n units in fast_forward — or marks the row here: a state
    /// change, staging, a data, program or checkpoint start,
    /// release_instance, and each due worker after end_of_slot's pass.
    void mark_view(ProcId q) {
        if (view_stale_[q]) return;
        view_stale_[q] = 1;
        stale_views_.push_back(q);
    }

    /// Phase 2a: advance in-flight transfers to/from UP workers, FIFO by
    /// start.  Checkpoint uploads ride the same queue as program and data
    /// downloads: every slot-unit of bandwidth comes out of the one `ncom`
    /// budget regardless of direction.  Entries of RECLAIMED workers keep
    /// their place but do not advance; a drained entry leaves the FIFO and
    /// puts its worker on the due list.
    void advance_in_flight(int& budget) {
        for (std::size_t i = 0; i < fifo_.size() && budget > 0;) {
            const ActiveTransfer tr = fifo_[i];
            if (workers_[tr.proc].state != ProcState::Up) {
                ++i;
                continue;
            }
            if (tr.kind == TransferKind::Ckpt) {
                // Checkpoint upload: master-bound, so it is not a received
                // action (the action trace records the receive/compute
                // model the off-line validator checks) and not counted in
                // transfer_slots (program + data); it has its own counter.
                row_[tr.proc].ckpt = true;
                ++metrics_.checkpoint_slots;
            } else if (tr.kind == TransferKind::Prog) {
                row_[tr.proc].recv = -2;
                ++metrics_.per_proc[tr.proc].transfer_slots;
                ++metrics_.transfer_slots;
            } else {
                row_[tr.proc].recv =
                    instances_[workers_[tr.proc].staged].logical;
                ++metrics_.per_proc[tr.proc].transfer_slots;
                ++metrics_.transfer_slots;
            }
            ++transfers_this_slot_;
            --budget;
            --views_[tr.proc].delay;
            if (--remaining(tr) > 0) {
                ++i;
            } else {
                fifo_.erase(fifo_.begin() + static_cast<std::ptrdiff_t>(i));
                mark_due(tr.proc);
            }
        }
    }

    /// Phase 2b': start checkpoint uploads the policy requests — after
    /// committed data transfers (work in hand beats insurance) but before
    /// the fresh assignment round (insurance beats speculation).  Pure
    /// per-worker decisions in processor order; no RNG is consumed, so a
    /// policy that never fires (`none`) leaves the run bit-identical.
    void start_checkpoints(long long t, int& budget) {
        if (!config_.checkpoint) return;
        for (const ProcId q : eligible_) {
            Worker& w = workers_[q];
            if (w.computing == -1 || w.ckpt_in_flight) continue;
            if (w.since_ckpt <= 0 || w.compute_remaining <= 0) continue;
            ckpt::CheckpointView view;
            view.belief = beliefs_ ? &(*beliefs_)[q] : nullptr;
            view.cost = config_.checkpoint_cost;
            view.w = pf_.w[q];
            view.computed = w.since_ckpt;
            view.remaining = w.compute_remaining;
            view.slot = t;
            if (!config_.checkpoint->should_checkpoint(view)) continue;
            const int progress = pf_.w[q] - w.compute_remaining;
            const int logical = instances_[w.computing].logical;
            const bool replica =
                instances_[w.computing].kind == InstKind::Replica;
            if (config_.checkpoint_cost == 0) { // zero-cost: instant commit
                emit(EventKind::CheckpointStart, q, logical, replica);
                commit_checkpoint(q, logical, progress);
                w.since_ckpt = 0;
                continue;
            }
            if (budget == 0) return; // no bandwidth: every later start waits
            w.ckpt_in_flight = true;
            w.ckpt_remaining = config_.checkpoint_cost - 1; // one slot now
            w.ckpt_start = t;
            w.ckpt_progress = progress;
            w.since_ckpt = 0;
            mark_view(q);
            if (w.ckpt_remaining > 0)
                fifo_insert({t, q, TransferKind::Ckpt});
            else
                mark_due(q);
            ++metrics_.checkpoint_slots;
            ++transfers_this_slot_;
            --budget;
            row_[q].ckpt = true;
            emit(EventKind::CheckpointStart, q, logical, replica);
        }
    }

    /// Records `progress` slots (on worker q's scale) as the logical task's
    /// committed checkpoint when it beats the stored fraction.
    void commit_checkpoint(ProcId q, int logical, int progress) {
        if (progress > 0) {
            workers_[q].ckpt_committed = progress;
            TaskCheckpoint& c = ckpt_store_[static_cast<std::size_t>(logical)];
            // Fraction comparison progress/w_q >= done/w, cross-multiplied.
            if (static_cast<long long>(progress) * c.w >=
                static_cast<long long>(c.done) * pf_.w[q]) {
                c.done = progress;
                c.w = pf_.w[q];
            }
        }
        ++metrics_.checkpoints_committed;
        emit(EventKind::CheckpointCommit, q, logical);
    }

    /// Restart credit for `logical` on a worker of speed `wq`: the stored
    /// fraction translated to that worker's scale.  Always < wq, because a
    /// snapshot is only taken while compute remains (done < w).
    [[nodiscard]] int ckpt_credit(int logical, int wq) const {
        const TaskCheckpoint& c =
            ckpt_store_[static_cast<std::size_t>(logical)];
        if (c.done <= 0) return 0;
        return static_cast<int>(static_cast<long long>(c.done) * wq / c.w);
    }

    /// Phase 2b: start data transfers for committed instances that were
    /// waiting behind their worker's program download (FIFO by commit time).
    void start_pending_data(long long t, int& budget) {
        if (waiting_.empty()) return;
        pending_.clear();
        for (const ProcId q : waiting_)
            if (workers_[q].state == ProcState::Up) pending_.push_back(q);
        std::sort(pending_.begin(), pending_.end(),
                  [this](ProcId a, ProcId b) {
                      const auto& ia = instances_[workers_[a].staged];
                      const auto& ib = instances_[workers_[b].staged];
                      return ia.commit_slot != ib.commit_slot
                                 ? ia.commit_slot < ib.commit_slot
                                 : a < b;
                  });
        for (ProcId q : pending_) {
            Worker& w = workers_[q];
            Instance& inst = instances_[w.staged];
            if (pf_.t_data == 0) { // zero-cost data: completes instantly
                inst.data_started = true;
                inst.data_done = true;
                mark_due(q);
                unwait(q);
                emit(EventKind::DataStart, q, inst.logical,
                     inst.kind == InstKind::Replica);
                continue;
            }
            if (budget == 0) break;
            start_data(inst, q, t);
            unwait(q);
            ++metrics_.per_proc[q].transfer_slots;
            ++metrics_.transfer_slots;
            ++transfers_this_slot_;
            --budget;
            row_[q].recv = inst.logical;
            emit(EventKind::DataStart, q, inst.logical,
                 inst.kind == InstKind::Replica);
        }
    }

    /// A worker's first assignment of the round: it counts in the view's
    /// nactive, and its nq_ entry is reset at the next round.
    void enroll(ProcId q, SchedView& view) {
        ++view.nactive;
        enrolled_.push_back(q);
    }

    /// Phase 2c: a heuristic round (Section 6): assign pool originals one by
    /// one, then replica candidates, then commit transfers in plan order
    /// while bandwidth lasts.
    void plan_and_commit(Scheduler& sched, long long t, int& budget) {
        proactive_reassess();
        if (budget == 0 && pf_.t_data > 0) return;

        // Pool originals needing a (re-)plan: non-passive classes drop last
        // round's plan.
        if (config_.plan_class != SchedulerClass::Passive)
            for (const int id : pool_) instances_[id].planned = kNoProc;

        const bool may_replicate =
            config_.replica_cap > 0 && up_count_ > remaining_logical_;
        const bool must_plan =
            std::any_of(pool_.begin(), pool_.end(),
                        [this](int id) {
                            return instances_[id].planned == kNoProc;
                        }) ||
            may_replicate;
        if (pool_.empty() && !may_replicate) return;
        if (up_count_ == 0) return;

        // Only the workers the previous round enrolled hold a count.
        for (const ProcId q : enrolled_) nq_[q] = 0;
        enrolled_.clear();
        if (config_.audit) audit_round_counts();
        replica_plan_.clear();
        // Every commit needs an UP worker with a free buffer (try_commit's
        // first check), and so does every replica candidate.  Nothing below
        // frees or fills a buffer before the commit sweep.
        const bool any_free_buffer =
            std::any_of(eligible_.begin(), eligible_.end(),
                        [this](ProcId q) { return workers_[q].staged == -1; });

        if (must_plan) {
            // The heuristic's snapshot: views_ persists across rounds, and
            // only the rows marked since the last round are stale.
            for (const ProcId q : stale_views_) {
                views_[q] = view_of(q);
                view_stale_[q] = 0;
            }
            stale_views_.clear();
            if (config_.audit) audit_views();
            SchedView view;
            view.platform = &pf_;
            view.procs = views_;
            view.slot = t;
            view.nactive = 0;
            view.remaining_tasks = static_cast<int>(pool_.size());
            view.run = run_id_;

            for (EngineObserver* o : config_.observers) o->on_round(t);
            sched.begin_round(view);

            // 1. Original tasks, in logical order, one by one.  A processor
            // already holding a live sibling of the task is excluded
            // (running two copies of a task on one host is pure waste).
            // With no live sibling — the pool original is the task's only
            // live copy — every UP worker (eligible_) is a candidate.
            for (int id : pool_) {
                Instance& inst = instances_[id];
                if (inst.planned != kNoProc) continue; // sticky, already set
                std::span<const ProcId> candidates = eligible_;
                if (logical_live_[inst.logical] > 1) {
                    scratch_.clear();
                    for (ProcId q : eligible_)
                        if (!holds_logical(q, inst.logical))
                            scratch_.push_back(q);
                    if (scratch_.empty()) continue;
                    candidates = scratch_;
                }
                const ProcId q =
                    sched.select(view, candidates, nq_, sched_rng_);
                inst.planned = q;
                inst.plan_seq = plan_counter_++;
                if (nq_[q]++ == 0) enroll(q, view);
            }

            // 2. Replica candidates (Section 6.1): only when UP processors
            // outnumber remaining tasks; at most `replica_cap` extras per
            // logical task; restricted to buffer-free processors so that a
            // committed replica starts transferring immediately (without
            // one, no task finds a candidate).
            if (may_replicate && any_free_buffer) {
                planned_logical_.assign(
                    static_cast<std::size_t>(pf_.size()), -1);
                for (int lt = 0; lt < config_.tasks_per_iteration; ++lt) {
                    if (logical_done_[lt]) continue;
                    // The pool only holds originals, and task lt's original
                    // is instance lt: the worker it is planned on this
                    // round (if any) takes no replica of it.
                    const Instance& original = instances_[lt];
                    const ProcId original_plan =
                        original.status == InstStatus::Pool ? original.planned
                                                            : kNoProc;
                    int live = logical_live_[lt];
                    while (live < 1 + config_.replica_cap) {
                        scratch_.clear();
                        for (ProcId q : eligible_) {
                            if (!views_[q].buffer_free) continue;
                            if (holds_logical(q, lt)) continue;
                            if (planned_logical_[q] == lt) continue;
                            if (q == original_plan) continue;
                            scratch_.push_back(q);
                        }
                        if (scratch_.empty()) break;
                        const ProcId q =
                            sched.select(view, scratch_, nq_, sched_rng_);
                        replica_plan_.push_back({lt, q});
                        planned_logical_[q] = lt;
                        if (nq_[q]++ == 0) enroll(q, view);
                        ++live;
                    }
                }
            }
        }

        // 3. Commit transfers in plan order: originals first (by plan_seq),
        // then replicas in planning order.  Without an UP worker with a
        // free buffer the sweep commits nothing, so it is skipped.
        if (!any_free_buffer) {
            if (config_.audit) audit_no_free_buffer();
            return;
        }
        commit_order_.clear();
        for (int id : pool_)
            if (instances_[id].planned != kNoProc) commit_order_.push_back(id);
        // The other classes re-planned the whole pool this round, in pool
        // order, so their plan_seq already ascends; Passive plans persist
        // across rounds.
        const auto by_plan_seq = [this](int a, int b) {
            return instances_[a].plan_seq < instances_[b].plan_seq;
        };
        if (config_.plan_class == SchedulerClass::Passive)
            std::sort(commit_order_.begin(), commit_order_.end(), by_plan_seq);
        else if (config_.audit &&
                 !std::is_sorted(commit_order_.begin(), commit_order_.end(),
                                 by_plan_seq))
            throw std::logic_error("audit: commit order out of plan order");
        for (int id : commit_order_) {
            if (budget == 0 && pf_.t_data > 0 && pf_.t_prog > 0) break;
            try_commit(id, instances_[id].planned, t, budget);
        }
        for (const auto& [lt, q] : replica_plan_) {
            if (budget == 0 && pf_.t_data > 0 && pf_.t_prog > 0) break;
            if (logical_done_[lt]) continue;
            if (workers_[q].staged != -1) continue;
            if (logical_live_[lt] >= 1 + config_.replica_cap) continue;
            // Materialize the replica instance only on successful commit.
            Instance inst;
            inst.logical = lt;
            inst.kind = InstKind::Replica;
            inst.data_remaining = pf_.t_data;
            inst.planned = q;
            instances_.push_back(inst);
            const int id = static_cast<int>(instances_.size()) - 1;
            ++logical_live_[lt];
            if (try_commit(id, q, t, budget)) {
                ++metrics_.replicas_committed;
                emit(EventKind::ReplicaCommitted, q, lt, true);
            } else {
                instances_.pop_back();
                --logical_live_[lt];
            }
        }
    }

    /// SchedulerClass::Proactive: un-enrol a suspended worker when an idle
    /// UP worker is expected (under the belief chains) to redo its whole
    /// committed pipeline faster than the suspended worker can finish it.
    /// Un-enrolment discards staged data and partial results (Section 3.3);
    /// the program is kept (only DOWN loses it).
    void proactive_reassess() {
        if (config_.plan_class != SchedulerClass::Proactive || !beliefs_)
            return;
        // Best idle-alternative expected pipeline: program (if missing) +
        // data + compute, inflated by expected RECLAIMED detours.
        double best_alt = std::numeric_limits<double>::infinity();
        for (const ProcId q : eligible_) {
            const Worker& w = workers_[q];
            if (w.staged != -1 || w.computing != -1) continue;
            const double need =
                (w.has_program
                     ? 0.0
                     : static_cast<double>(w.prog_in_flight ? w.prog_remaining
                                                            : pf_.t_prog)) +
                pf_.t_data + pf_.w[q];
            best_alt = std::min(
                best_alt,
                markov::e_workload((*beliefs_)[q].matrix(), need));
        }
        if (std::isinf(best_alt)) return;

        for (int q = 0; q < pf_.size(); ++q) {
            Worker& w = workers_[q];
            if (w.state != ProcState::Reclaimed) continue;
            if (w.staged == -1 && w.computing == -1) continue;
            const auto& m = (*beliefs_)[q].matrix();
            const double p_rr = m.p_rr();
            if (p_rr >= 1.0) continue; // handled below as infinite wait
            const double expected_return = 1.0 / (1.0 - p_rr);
            int remaining = 0;
            if (w.computing != -1) remaining += w.compute_remaining;
            if (w.staged != -1)
                remaining +=
                    instances_[w.staged].data_remaining + pf_.w[q];
            const double est_current =
                expected_return + markov::e_workload(m, remaining);
            if (best_alt >= est_current) continue;
            if (w.staged != -1) {
                emit(EventKind::ProactiveCancel, q,
                     instances_[w.staged].logical,
                     instances_[w.staged].kind == InstKind::Replica);
                release_instance(w.staged, /*to_pool=*/true);
            }
            if (w.computing != -1) {
                emit(EventKind::ProactiveCancel, q,
                     instances_[w.computing].logical,
                     instances_[w.computing].kind == InstKind::Replica);
                release_instance(w.computing, /*to_pool=*/true);
            }
            ++metrics_.proactive_cancellations;
        }
    }

    /// Tries to turn a planned assignment into committed work + a started
    /// transfer.  Returns true when the instance got committed.
    bool try_commit(int id, ProcId q, long long t, int& budget) {
        Instance& inst = instances_[id];
        Worker& w = workers_[q];
        if (w.state != ProcState::Up || w.staged != -1) return false;
        if (w.has_program) {
            // Needs a data transfer right away.
            if (pf_.t_data == 0) {
                stage(inst, id, q, t);
                inst.data_started = true;
                inst.data_done = true;
                mark_due(q);
                emit(EventKind::DataStart, q, inst.logical,
                     inst.kind == InstKind::Replica);
                return true;
            }
            if (budget == 0) return false;
            stage(inst, id, q, t);
            start_data(inst, q, t);
            ++metrics_.per_proc[q].transfer_slots;
            ++metrics_.transfer_slots;
            ++transfers_this_slot_;
            --budget;
            row_[q].recv = inst.logical;
            emit(EventKind::DataStart, q, inst.logical,
                 inst.kind == InstKind::Replica);
            return true;
        }
        if (!w.prog_in_flight) {
            // Enrolment: the program download starts now; the task's data
            // will follow once the program is complete.
            if (pf_.t_prog == 0) {
                w.has_program = true;
                mark_view(q);
                return try_commit(id, q, t, budget);
            }
            if (budget == 0) return false;
            mark_view(q);
            w.prog_in_flight = true;
            w.prog_remaining = pf_.t_prog - 1; // this slot transfers already
            w.prog_start = t;
            if (w.prog_remaining > 0)
                fifo_insert({t, q, TransferKind::Prog});
            else
                mark_due(q);
            ++metrics_.per_proc[q].transfer_slots;
            ++metrics_.transfer_slots;
            ++transfers_this_slot_;
            --budget;
            row_[q].recv = -2;
            emit(EventKind::ProgStart, q, inst.logical,
                 inst.kind == InstKind::Replica);
            stage(inst, id, q, t);
            return true;
        }
        // Program already in flight (started for a since-cancelled task):
        // stage behind it at no bandwidth cost this slot.
        stage(inst, id, q, t);
        return true;
    }

    /// Commits `inst` to worker q's buffer.  An original leaves the pool
    /// list; a replica was never on it (it is materialized for the commit).
    void stage(Instance& inst, int id, ProcId q, long long t) {
        if (inst.kind == InstKind::Original) {
            const auto it = std::lower_bound(pool_.begin(), pool_.end(), id);
            if (it != pool_.end() && *it == id) pool_.erase(it);
        }
        inst.status = InstStatus::Committed;
        inst.proc = q;
        inst.commit_slot = t;
        workers_[q].staged = id;
        mark_view(q);
    }

    /// Starts the data transfer of q's staged instance; this slot already
    /// transfers one unit.
    void start_data(Instance& inst, ProcId q, long long t) {
        inst.data_started = true;
        workers_[q].data_start = t;
        mark_view(q);
        if (--inst.data_remaining > 0)
            fifo_insert({t, q, TransferKind::Data});
        else
            mark_due(q);
    }

    void advance_compute() {
        for (const ProcId q : eligible_) {
            Worker& w = workers_[q];
            if (w.computing == -1) continue;
            // Computation pauses while the worker's snapshot uploads — the
            // classic checkpoint overhead the policies must amortize.
            if (w.ckpt_in_flight) continue;
            --views_[q].delay;
            if (--w.compute_remaining <= 0) mark_due(q);
            ++w.since_ckpt;
            ++metrics_.compute_slots;
            ++metrics_.per_proc[q].compute_slots;
            row_[q].compute = instances_[w.computing].logical;
        }
    }

    /// Phase 4: completions, promotions, iteration boundary.  Visits only
    /// the slot's due workers, in processor order: the phase that drained a
    /// transfer or computation, staged data-complete work, or freed a
    /// compute slot put its worker on the due list.  Returns true when the
    /// final iteration finished during this slot.
    bool end_of_slot(long long t) {
        if (config_.audit) audit_due(/*promotion_only=*/false);
        std::sort(due_.begin(), due_.end());
        for (const ProcId q : due_) {
            Worker& w = workers_[q];
            if (w.prog_in_flight && w.prog_remaining == 0) {
                w.prog_in_flight = false;
                w.has_program = true;
                w.prog_start = -1;
                // A task staged behind the program now waits for its data.
                if (w.staged != -1) waiting_.push_back(q);
                emit(EventKind::ProgComplete, q);
            }
            if (w.staged != -1) {
                Instance& inst = instances_[w.staged];
                if (inst.data_started && inst.data_remaining == 0 &&
                    !inst.data_done) {
                    inst.data_done = true;
                    emit(EventKind::DataComplete, q, inst.logical,
                         inst.kind == InstKind::Replica);
                }
            }
            if (w.ckpt_in_flight && w.ckpt_remaining == 0) {
                // The upload finished: the snapshot becomes durable at the
                // master and computation resumes next slot.  ckpt_in_flight
                // implies computing != -1 (release_instance cancels the
                // upload when the subject goes away).
                w.ckpt_in_flight = false;
                w.ckpt_start = -1;
                commit_checkpoint(q, instances_[w.computing].logical,
                                  w.ckpt_progress);
                w.ckpt_progress = 0;
            }
        }
        // Task completions (may cancel siblings on other workers, which
        // joins them to the due list: a freed compute slot can promote).
        const std::size_t completing = due_.size();
        for (std::size_t i = 0; i < completing; ++i) {
            const Worker& w = workers_[due_[i]];
            if (w.computing == -1 || w.compute_remaining > 0) continue;
            complete_instance(w.computing);
        }
        if (due_.size() > completing)
            std::sort(due_.begin(), due_.end());
        if (config_.audit) audit_due(/*promotion_only=*/true);
        // Promotions: a data-complete staged task starts computing next slot.
        // Every due worker's view row is marked here, after the pass wrote
        // to it (a round earlier in the slot may have rebuilt the row).
        for (const ProcId q : due_) {
            Worker& w = workers_[q];
            due_flag_[q] = 0;
            mark_view(q);
            if (w.computing != -1 || w.staged == -1) continue;
            Instance& inst = instances_[w.staged];
            if (!inst.data_done) continue;
            w.computing = w.staged;
            w.staged = -1;
            w.data_start = -1;
            w.compute_remaining = pf_.w[q];
            w.since_ckpt = 0;
            w.compute_credit = 0;
            w.ckpt_committed = 0;
            if (config_.checkpoint && inst.kind == InstKind::Original) {
                // Restart-from-checkpoint: a committed snapshot of this
                // logical task credits the new incarnation with the work it
                // preserves (translated to this worker's speed).  Originals
                // only — a snapshot exists to shorten the post-crash redo,
                // not to give speculative replicas a head start.
                const int credit = ckpt_credit(inst.logical, pf_.w[q]);
                if (credit > 0) {
                    w.compute_remaining -= credit;
                    w.compute_credit = credit;
                    w.ckpt_committed = credit;
                    metrics_.saved_compute_slots += credit;
                    ++metrics_.recoveries;
                    emit(EventKind::Recovery, q, inst.logical,
                         /*replica=*/false);
                }
            }
            emit(EventKind::ComputeStart, q, instances_[w.computing].logical,
                 instances_[w.computing].kind == InstKind::Replica);
        }
        due_.clear();
        if (remaining_logical_ == 0) {
            emit(EventKind::IterationComplete, kNoProc);
            ++iterations_done_;
            metrics_.iteration_ends.push_back(t + 1);
            if (iterations_done_ == config_.iterations) return true;
            start_iteration();
        }
        return false;
    }

    void complete_instance(int id) {
        Instance& inst = instances_[id];
        Worker& w = workers_[inst.proc];
        inst.status = InstStatus::Done;
        w.computing = -1;
        w.compute_remaining = 0;
        w.since_ckpt = 0;
        w.compute_credit = 0;
        w.ckpt_committed = 0;
        logical_done_[inst.logical] = true;
        --logical_live_[inst.logical];
        --remaining_logical_;
        ++metrics_.tasks_completed;
        ++metrics_.per_proc[inst.proc].tasks_completed;
        if (inst.kind == InstKind::Replica) ++metrics_.replica_wins;
        emit(EventKind::TaskComplete, inst.proc, inst.logical,
             inst.kind == InstKind::Replica);
        // Cancel all live siblings: their data/compute is wasted.
        for (int sid = 0; sid < static_cast<int>(instances_.size()); ++sid) {
            if (sid == id) continue;
            Instance& sib = instances_[sid];
            if (sib.logical != inst.logical) continue;
            if (sib.status == InstStatus::Pool) {
                sib.status = InstStatus::Cancelled;
                --logical_live_[sib.logical];
                pool_.erase(
                    std::lower_bound(pool_.begin(), pool_.end(), sid));
            } else if (sib.status == InstStatus::Committed) {
                emit(EventKind::ReplicaCancelled, sib.proc, sib.logical,
                     sib.kind == InstKind::Replica);
                release_instance(sid, /*to_pool=*/false);
            }
        }
    }

    // ---- helpers -------------------------------------------------------

    /// Shortest inert stretch worth a fast_forward (below it, the closed-
    /// form setup costs more than stepping the slots; dead stretches are
    /// exempt so the skip count matches the slot loop's).
    static constexpr long long kMinJump = 4;
    /// Slots in [t, known_inert_until_) are known inert from an earlier
    /// steady_horizon call that fell under kMinJump; they step through the
    /// normal phases without re-running the prediction.
    long long known_inert_until_ = 0;

    /// Completes the activity row with the worker states, hands it to
    /// `hook` on every observer, and clears it for the next slot.  Only
    /// called when an observer is attached: an unobserved run writes the
    /// row in its slot phases but never reads or clears it.
    template <typename Hook>
    void publish_row(const Hook& hook) {
        for (int q = 0; q < pf_.size(); ++q)
            row_[q].state = workers_[q].state;
        for (EngineObserver* o : config_.observers) hook(*o);
        std::fill(row_.begin(), row_.end(), SlotActivity{});
    }

    void emit(EventKind kind, ProcId proc, int logical = -1,
              bool replica = false,
              ProcState state = ProcState::Up) {
        if (config_.observers.empty()) return;
        Event e;
        e.slot = slot_;
        e.kind = kind;
        e.proc = proc;
        e.iteration = iterations_done_;
        e.logical = logical;
        e.replica = replica;
        e.state = state;
        for (EngineObserver* o : config_.observers) o->on_event(e);
    }

    /// Worker q's scheduler-view row, built from scratch.
    [[nodiscard]] ProcView view_of(ProcId q) const {
        const Worker& w = workers_[q];
        ProcView v;
        v.state = w.state;
        v.has_program = w.has_program;
        v.buffer_free = (w.staged == -1);
        v.w = pf_.w[q];
        v.delay = delay_of(q);
        v.belief = beliefs_ ? &(*beliefs_)[q] : nullptr;
        return v;
    }

    /// Delay(q) of Section 6.3.1: remaining program + committed data +
    /// committed compute (plus an in-flight checkpoint upload, which blocks
    /// the compute pipeline), assuming the worker stays UP, contention-free.
    [[nodiscard]] int delay_of(ProcId q) const {
        const Worker& w = workers_[q];
        int d = 0;
        if (!w.has_program)
            d += w.prog_in_flight ? w.prog_remaining : pf_.t_prog;
        if (w.computing != -1) d += w.compute_remaining;
        if (w.ckpt_in_flight) d += w.ckpt_remaining;
        if (w.staged != -1)
            d += instances_[w.staged].data_remaining + pf_.w[q];
        return d;
    }

    [[nodiscard]] bool holds_logical(ProcId q, int logical) const {
        const Worker& w = workers_[q];
        if (w.staged != -1 && instances_[w.staged].logical == logical)
            return true;
        if (w.computing != -1 && instances_[w.computing].logical == logical)
            return true;
        return false;
    }

    void audit_bandwidth() const {
        if (transfers_this_slot_ > pf_.ncom)
            throw std::logic_error("audit: bandwidth bound exceeded");
    }

    /// True when worker q meets one of end_of_slot's predicates: a drained
    /// transfer or computation to materialize, or a data-complete staged
    /// task with a free compute slot (only that, with `promotion_only`).
    [[nodiscard]] bool meets_end_of_slot(ProcId q, bool promotion_only) const {
        const Worker& w = workers_[q];
        const Instance* staged =
            w.staged != -1 ? &instances_[w.staged] : nullptr;
        if (w.computing == -1 && staged && staged->data_done) return true;
        if (promotion_only) return false;
        return (w.prog_in_flight && w.prog_remaining == 0) ||
               (staged && staged->data_started &&
                staged->data_remaining == 0 && !staged->data_done) ||
               (w.ckpt_in_flight && w.ckpt_remaining == 0) ||
               (w.computing != -1 && w.compute_remaining <= 0);
    }

    /// Audit: every row of the incrementally kept scheduler view equals a
    /// from-scratch build.
    void audit_views() const {
        for (int q = 0; q < pf_.size(); ++q)
            if (!(views_[q] == view_of(q)))
                throw std::logic_error("audit: scheduler view drift");
    }

    /// Audit at a round's start: every per-round assignment count is back
    /// to zero.
    void audit_round_counts() const {
        if (std::any_of(nq_.begin(), nq_.end(), [](int n) { return n != 0; }))
            throw std::logic_error("audit: stale round assignment count");
    }

    /// Audit of a skipped commit sweep: scanning every worker, none is UP
    /// with a free buffer.
    void audit_no_free_buffer() const {
        for (const Worker& w : workers_)
            if (w.state == ProcState::Up && w.staged == -1)
                throw std::logic_error(
                    "audit: commit sweep skipped with a free UP buffer");
    }

    /// Audit: every worker end_of_slot's next pass must visit is due.
    void audit_due(bool promotion_only) const {
        for (int q = 0; q < pf_.size(); ++q)
            if (meets_end_of_slot(q, promotion_only) && !due_flag_[q])
                throw std::logic_error(
                    "audit: due list misses a worker end_of_slot must visit");
    }

    /// Audit cross-check of the incremental slot bookkeeping after slot t:
    /// recomputes the worker states, the minimum change slot, the view rows
    /// not marked stale, the bandwidth FIFO, the pool list, the UP list,
    /// the data-waiting list and the due set from scratch and throws on any
    /// drift.
    void audit_incremental(long long t) {
        // A change slot may lie at or before t: a segment that was the
        // trace's open frontier when read may have grown since, and is
        // re-read at the next simulated slot.
        for (int q = 0; q < pf_.size(); ++q)
            if (workers_[q].state != cursors_[q].state_at(t))
                throw std::logic_error("audit: worker state drift");
        if (next_change_ != *std::min_element(change_at_.begin(),
                                              change_at_.end()))
            throw std::logic_error("audit: change slot minimum drift");
        for (int q = 0; q < pf_.size(); ++q)
            if (!view_stale_[q] && !(views_[q] == view_of(q)))
                throw std::logic_error("audit: scheduler view drift");
        std::vector<ActiveTransfer> fifo;
        for (int q = 0; q < pf_.size(); ++q) {
            const Worker& w = workers_[q];
            if (w.prog_in_flight && w.prog_remaining > 0)
                fifo.push_back({w.prog_start, q, TransferKind::Prog});
            if (w.staged != -1) {
                const Instance& inst = instances_[w.staged];
                if (inst.data_started && inst.data_remaining > 0)
                    fifo.push_back({w.data_start, q, TransferKind::Data});
            }
            if (w.ckpt_in_flight && w.ckpt_remaining > 0)
                fifo.push_back({w.ckpt_start, q, TransferKind::Ckpt});
        }
        std::sort(fifo.begin(), fifo.end());
        if (fifo != fifo_)
            throw std::logic_error("audit: bandwidth FIFO drift");
        std::vector<int> pool;
        for (int id = 0; id < static_cast<int>(instances_.size()); ++id)
            if (instances_[id].status == InstStatus::Pool) pool.push_back(id);
        if (pool != pool_) throw std::logic_error("audit: pool list drift");
        std::vector<ProcId> up;
        for (int q = 0; q < pf_.size(); ++q)
            if (workers_[q].state == ProcState::Up) up.push_back(q);
        if (up != eligible_ || up_count_ != static_cast<int>(up.size()))
            throw std::logic_error("audit: UP list drift");
        std::vector<ProcId> waiting;
        for (int q = 0; q < pf_.size(); ++q) {
            const Worker& w = workers_[q];
            if (w.has_program && w.staged != -1 &&
                !instances_[w.staged].data_started &&
                !instances_[w.staged].data_done)
                waiting.push_back(q);
        }
        std::vector<ProcId> listed = waiting_;
        std::sort(listed.begin(), listed.end());
        if (waiting != listed)
            throw std::logic_error("audit: data-waiting list drift");
        if (!due_.empty())
            throw std::logic_error("audit: due list not drained");
        for (int q = 0; q < pf_.size(); ++q)
            if (due_flag_[q] || meets_end_of_slot(q, false))
                throw std::logic_error(
                    "audit: end-of-slot work left pending past the slot");
    }

    void audit_invariants() const {
        int live_from_counts = 0;
        for (int lt = 0; lt < config_.tasks_per_iteration; ++lt) {
            if (logical_live_[lt] < 0)
                throw std::logic_error("audit: negative live-instance count");
            live_from_counts += logical_live_[lt];
        }
        int live_scan = 0;
        for (const auto& inst : instances_)
            if (inst.status == InstStatus::Pool ||
                inst.status == InstStatus::Committed)
                ++live_scan;
        if (live_scan != live_from_counts)
            throw std::logic_error("audit: live-instance count drift");
        for (int q = 0; q < pf_.size(); ++q) {
            const Worker& w = workers_[q];
            if (w.prog_in_flight && w.has_program)
                throw std::logic_error("audit: program both held and in flight");
            if (w.staged != -1) {
                const Instance& inst = instances_[w.staged];
                if (inst.status != InstStatus::Committed || inst.proc != q)
                    throw std::logic_error("audit: staged link broken");
                if (inst.data_remaining < 0 || inst.data_remaining > pf_.t_data)
                    throw std::logic_error("audit: data counter out of range");
            }
            if (w.computing != -1) {
                const Instance& inst = instances_[w.computing];
                if (inst.status != InstStatus::Committed || inst.proc != q)
                    throw std::logic_error("audit: computing link broken");
                if (!inst.data_done)
                    throw std::logic_error("audit: computing without data");
                if (!w.has_program)
                    throw std::logic_error("audit: computing without program");
                if (w.compute_remaining < 0 || w.compute_remaining > pf_.w[q])
                    throw std::logic_error("audit: compute counter out of range");
                if (w.computing == w.staged)
                    throw std::logic_error("audit: instance both staged and computing");
                if (w.compute_credit < 0 || w.compute_credit >= pf_.w[q])
                    throw std::logic_error(
                        "audit: checkpoint credit out of range");
                if (w.ckpt_committed < w.compute_credit ||
                    w.ckpt_committed > pf_.w[q] - w.compute_remaining)
                    throw std::logic_error(
                        "audit: committed-snapshot coverage out of range");
            }
            if (w.ckpt_in_flight) {
                if (!config_.checkpoint)
                    throw std::logic_error(
                        "audit: checkpoint in flight without a policy");
                if (w.computing == -1)
                    throw std::logic_error(
                        "audit: checkpoint in flight without a computed task");
                if (w.ckpt_remaining < 0 ||
                    w.ckpt_remaining > config_.checkpoint_cost)
                    throw std::logic_error(
                        "audit: checkpoint counter out of range");
                if (w.ckpt_progress <= 0 || w.ckpt_progress >= pf_.w[q])
                    throw std::logic_error(
                        "audit: checkpoint snapshot out of range");
            }
        }
        for (int lt = 0; lt < config_.tasks_per_iteration; ++lt) {
            const TaskCheckpoint& c =
                ckpt_store_[static_cast<std::size_t>(lt)];
            // A committed fraction is always in (0, 1): snapshots are only
            // taken while compute remains.
            if (c.done < 0 || c.w < 1 || (c.done > 0 && c.done >= c.w))
                throw std::logic_error(
                    "audit: committed checkpoint fraction out of range");
        }
    }

    // ---- data ----------------------------------------------------------

    const Platform& pf_;
    EngineConfig config_;
    /// SchedView::run of every round of this run.
    std::uint64_t run_id_;
    std::vector<markov::TraceCursor> cursors_;
    util::Rng sched_rng_{0};
    const std::vector<markov::MarkovChain>* beliefs_ = nullptr;

    std::vector<Worker> workers_;
    std::vector<ProcId> eligible_; ///< UP workers in processor order
    int up_count_ = 0;             ///< eligible_.size()
    /// Per worker, its change slot: where its current RLE segment ends as
    /// far as it was realized when read (a lower bound of the true end), so
    /// advance_states re-reads only workers whose state can have changed.
    std::vector<long long> change_at_;
    long long next_change_ = 0; ///< min of change_at_
    /// Per UP worker, the slot it came UP (its UP slots are added when it
    /// leaves UP or the run ends).
    std::vector<long long> up_since_;
    /// This iteration's task copies: the originals are instances 0..m-1
    /// (instance id == logical task), replicas are appended after them.
    std::vector<Instance> instances_;
    /// Ids of the instances in the pool (status Pool; originals only), in
    /// id order — kept as statuses change instead of rescanned per round.
    std::vector<int> pool_;
    /// The bandwidth FIFO: every in-flight program/data/checkpoint transfer
    /// with slot-units left, sorted by (start, proc, kind).  A transfer is
    /// inserted when it starts and erased when it drains or is cancelled;
    /// RECLAIMED workers' entries keep their place but do not advance.
    std::vector<ActiveTransfer> fifo_;
    /// Workers holding the program whose staged task's data has not
    /// started (waiting for bandwidth), any state; unordered.
    std::vector<ProcId> waiting_;
    /// Workers end_of_slot must visit this slot (due_flag_ dedupes).
    std::vector<ProcId> due_;
    std::vector<std::uint8_t> due_flag_;
    std::vector<TaskCheckpoint> ckpt_store_; ///< per logical task, per iter
    std::vector<bool> logical_done_;
    std::vector<int> logical_live_; ///< live (pool+committed) copies per task
    int remaining_logical_ = 0;
    int iterations_done_ = 0;
    long long plan_counter_ = 0;
    int transfers_this_slot_ = 0;
    long long slot_ = 0;
    /// This slot's activity per worker, written by the slot phases (or by
    /// fast_forward for a whole stretch) and handed to the observers.
    std::vector<SlotActivity> row_;
    /// The scheduler view, one row per worker, kept exact through the
    /// events that change it: a drain decrements the row's delay in step,
    /// and any other change lists the row as stale (view_stale_ dedupes;
    /// see mark_view), which the next round rebuilds.
    std::vector<ProcView> views_;
    std::vector<ProcId> stale_views_;
    std::vector<std::uint8_t> view_stale_;

    RunMetrics metrics_;

    // Scratch buffers reused across slots to avoid per-slot allocation.
    std::vector<ProcId> pending_;
    /// Instances assigned to each worker this round; nonzero only for the
    /// workers in enrolled_, which plan_and_commit resets.
    std::vector<int> nq_;
    std::vector<ProcId> enrolled_;
    std::vector<ProcId> scratch_;
    std::vector<int> commit_order_;
    std::vector<std::pair<int, ProcId>> replica_plan_;
    std::vector<int> planned_logical_;
};

} // namespace

Simulation::Simulation(
    Platform platform,
    std::vector<std::unique_ptr<markov::AvailabilityModel>> models,
    std::vector<markov::MarkovChain> beliefs, EngineConfig config,
    std::uint64_t seed)
    : platform_(std::move(platform)),
      models_(std::move(models)),
      beliefs_(std::move(beliefs)),
      config_(config),
      seed_(seed) {
    if (auto err = platform_.validate(); !err.empty())
        throw std::invalid_argument("Simulation: " + err);
    if (static_cast<int>(models_.size()) != platform_.size())
        throw std::invalid_argument(
            "Simulation: one availability model per processor required");
    if (!beliefs_.empty() &&
        static_cast<int>(beliefs_.size()) != platform_.size())
        throw std::invalid_argument(
            "Simulation: beliefs must be empty or one per processor");
    if (config_.iterations <= 0 || config_.tasks_per_iteration <= 0)
        throw std::invalid_argument(
            "Simulation: iterations and tasks per iteration must be positive");
    if (config_.replica_cap < 0)
        throw std::invalid_argument("Simulation: negative replica cap");
    if (config_.checkpoint_cost < 0)
        throw std::invalid_argument("Simulation: negative checkpoint cost");
    if (std::find(config_.observers.begin(), config_.observers.end(),
                  nullptr) != config_.observers.end())
        throw std::invalid_argument("Simulation: null observer");
}

Simulation Simulation::from_chains(Platform platform,
                                   const std::vector<markov::MarkovChain>& chains,
                                   EngineConfig config, std::uint64_t seed) {
    std::vector<std::unique_ptr<markov::AvailabilityModel>> models;
    models.reserve(chains.size());
    for (const auto& c : chains)
        models.push_back(std::make_unique<markov::MarkovAvailability>(c));
    return Simulation(std::move(platform), std::move(models), chains, config,
                      seed);
}

std::shared_ptr<markov::RealizedTraces> Simulation::realization() const {
    if (!traces_)
        traces_ = std::make_shared<markov::RealizedTraces>(models_, seed_);
    return traces_;
}

namespace {

/// Scheduler cache traffic attributable to one run: the counters are
/// cumulative over the scheduler's lifetime, the metrics report deltas.
void record_cache_delta(RunMetrics& m, const Scheduler& sched,
                        const SchedulerCounters& before) {
    const SchedulerCounters after = sched.counters();
    m.cache_hits =
        static_cast<long long>(after.cache_hits - before.cache_hits);
    m.cache_misses =
        static_cast<long long>(after.cache_misses - before.cache_misses);
    m.cache_invalidations = static_cast<long long>(
        after.cache_invalidations - before.cache_invalidations);
}

} // namespace

RunMetrics Simulation::run(Scheduler& sched) const {
    const auto traces = realization();
    Runner runner(platform_, *traces, beliefs_, config_, seed_);
    const SchedulerCounters before = sched.counters();
    RunMetrics m = runner.run(sched);
    record_cache_delta(m, sched, before);
    return m;
}

RunMetrics Simulation::run_for_deadline(Scheduler& sched,
                                        long long deadline_slots) const {
    EngineConfig cfg = config_;
    cfg.max_slots = deadline_slots;
    // An unreachable iteration budget: the run always ends at the deadline
    // and iterations_completed is the Section 3.4 objective value.
    cfg.iterations = std::numeric_limits<int>::max();
    const auto traces = realization();
    Runner runner(platform_, *traces, beliefs_, cfg, seed_);
    const SchedulerCounters before = sched.counters();
    RunMetrics m = runner.run(sched);
    record_cache_delta(m, sched, before);
    return m;
}

long long Simulation::min_slots_for_iterations(Scheduler& sched,
                                               int iterations) const {
    EngineConfig cfg = config_;
    cfg.iterations = iterations;
    const auto traces = realization();
    Runner runner(platform_, *traces, beliefs_, cfg, seed_);
    const auto metrics = runner.run(sched);
    return metrics.completed ? metrics.makespan : -1;
}

} // namespace volsched::sim
