#pragma once
/// \file observer.hpp
/// The engine's one observation interface.  A run reports itself to every
/// observer attached through EngineConfig::observers (or
/// SimulationBuilder::observe): the protocol event stream, one activity
/// row per slot, each elided stretch as a whole, and each scheduling
/// round.  Hooks receive const data and return nothing, so attaching an
/// observer cannot steer a run.  The engine knows no recorder format:
/// EventLog, Timeline, ActionTrace and obs::TraceRecorder each implement
/// this interface, and a test can substitute its own.

#include <span>

#include "markov/state.hpp"
#include "sim/platform.hpp"

namespace volsched::sim {

struct Event; // defined in sim/events.hpp

/// What one worker did in one slot.  `recv` and `compute` follow
/// offline/schedule.hpp's conventions, so a recorded run can be replayed
/// through the off-line validator.
struct SlotActivity {
    markov::ProcState state = markov::ProcState::Up;
    /// -2: one program slot; >= 0: one data slot of that logical task;
    /// -1: nothing received.
    int recv = -1;
    /// Logical task computed this slot, or -1.
    int compute = -1;
    /// One slot of a checkpoint upload (master-bound, so not a receive).
    bool ckpt = false;
};

/// One SlotActivity per worker, indexed by ProcId.
using SlotRow = std::span<const SlotActivity>;

class EngineObserver {
public:
    virtual ~EngineObserver() = default;

    /// A run starts on `platform`.  A recorder drops any earlier run here.
    virtual void begin_run(const Platform& /*platform*/) {}

    /// The run ended at slot `end` (exclusive): the makespan, or the
    /// horizon when the run did not finish.
    virtual void end_run(long long /*end*/) {}

    /// One protocol-level occurrence, in emission order.
    virtual void on_event(const Event& /*event*/) {}

    /// Slot t ran through the slot phases; row[q] is worker q's activity.
    /// Slots arrive in order, elided ones through on_inert.
    virtual void on_slot(long long /*t*/, SlotRow /*row*/) {}

    /// The engine advanced slots [from, to) in closed form: every slot of
    /// the stretch had the activity `row`; `dead` means no worker was UP.
    /// The default replays on_slot once per slot.
    virtual void on_inert(long long from, long long to, bool /*dead*/,
                          SlotRow row) {
        for (long long t = from; t < to; ++t) on_slot(t, row);
    }

    /// A scheduling round ran at slot t (its heuristic was consulted).
    virtual void on_round(long long /*t*/) {}
};

} // namespace volsched::sim
