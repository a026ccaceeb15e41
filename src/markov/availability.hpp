#pragma once
/// \file availability.hpp
/// Pluggable availability-process interface.  The realization layer
/// (realized_trace.hpp) samples each processor's states through it, one
/// run of identical states per call, so the same engine runs Markov chains
/// (the paper's model), replayed traces, or semi-Markov processes (the
/// paper's future-work direction).

#include <memory>

#include "markov/chain.hpp"
#include "markov/state.hpp"
#include "util/rng.hpp"

namespace volsched::markov {

/// One availability process for one processor.  Implementations may be
/// stateful (e.g., a semi-Markov sojourn countdown), hence clone() for
/// spawning per-processor instances from a prototype.
class AvailabilityModel {
public:
    virtual ~AvailabilityModel() = default;

    /// State at slot 0.
    virtual ProcState initial_state(util::Rng& rng) = 0;

    /// State at slot t+1 given the state at slot t.
    virtual ProcState next_state(ProcState current, util::Rng& rng) = 0;

    /// Run-level sampling.  `state` is the state at the last sampled slot.
    /// Samples n further slots, 1 <= n <= `limit`, of which only the last
    /// may differ from `state`; leaves the last slot's state in `state` and
    /// returns n.  The built-in models stop exactly after the first slot
    /// whose state differs, or at `limit`.
    ///
    /// Contract: the call draws from `rng`, and changes the model's own
    /// state, exactly as n next_state calls would.  The default is that
    /// per-slot loop, which is always correct.  A model overrides it only
    /// to sample a run in bulk: SemiMarkovAvailability crosses the rest of
    /// a sojourn, which draws nothing, in one step.
    virtual long long advance(ProcState& state, long long limit,
                              util::Rng& rng);

    /// Deep copy, resetting any per-run internal state.
    [[nodiscard]] virtual std::unique_ptr<AvailabilityModel> clone() const = 0;
};

/// How processors start at slot 0.
enum class InitialState {
    AlwaysUp,   ///< everyone starts UP (paper experiments start this way)
    Stationary, ///< draw from the chain's limit distribution
};

/// The paper's model: a time-homogeneous 3-state Markov chain.
class MarkovAvailability final : public AvailabilityModel {
public:
    explicit MarkovAvailability(MarkovChain chain,
                                InitialState init = InitialState::AlwaysUp);

    ProcState initial_state(util::Rng& rng) override;
    ProcState next_state(ProcState current, util::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<AvailabilityModel> clone() const override;

    [[nodiscard]] const MarkovChain& chain() const noexcept { return chain_; }

private:
    MarkovChain chain_;
    InitialState init_;
};

} // namespace volsched::markov
