#pragma once
/// \file semi_markov.hpp
/// Non-memoryless availability: a semi-Markov process whose state-sojourn
/// durations are Weibull-distributed, as empirical desktop-grid studies
/// suggest (Nurmi/Brevik/Wolski; Javadi et al. — refs [8,10] of the paper).
/// This implements the paper's Section 8 "future work" direction so that the
/// heuristics can be stress-tested when the Markov assumption is violated.

#include <array>
#include <memory>

#include "markov/availability.hpp"
#include "trace/sojourn.hpp"

namespace volsched::trace {

/// Weibull(shape k, scale lambda) duration sampler (inverse-CDF method).
/// shape < 1 yields heavy-tailed sojourns (long stretches of availability
/// punctuated by bursts of churn), the regime reported for desktop grids.
/// Thin convenience wrapper over SojournDist.
struct Weibull {
    double shape = 1.0;
    double scale = 1.0;

    /// Draws a duration in slots, at least 1.
    [[nodiscard]] long long sample_slots(util::Rng& rng) const;

    [[nodiscard]] SojournDist dist() const noexcept {
        return {SojournDist::Kind::Weibull, shape, scale};
    }
};

/// Parameters for a 3-state semi-Markov availability process: per-state
/// sojourn distributions + an embedded jump chain (row-stochastic over the
/// two states different from the current one, expressed as the probability
/// of each destination).
struct SemiMarkovParams {
    std::array<SojournDist, 3> sojourn{};   // indexed by ProcState
    // jump[i][j]: probability of jumping from state i to state j; the
    // diagonal must be zero (sojourn length handles self-persistence).
    std::array<std::array<double, 3>, 3> jump{};

    /// Validates jump rows (diagonal zero, off-diagonal sums to 1) and the
    /// sojourn parameters.
    [[nodiscard]] bool valid(double tol = 1e-9) const noexcept;
};

/// Stateful availability model: holds the remaining sojourn of the current
/// state and samples a jump when it expires.  Only a jump draws (the jump
/// target, then the new sojourn), so advance() crosses the rest of a
/// sojourn in one step: one draw per sojourn instead of one call per slot.
class SemiMarkovAvailability final : public markov::AvailabilityModel {
public:
    explicit SemiMarkovAvailability(SemiMarkovParams params);

    markov::ProcState initial_state(util::Rng& rng) override;
    markov::ProcState next_state(markov::ProcState current,
                                 util::Rng& rng) override;
    long long advance(markov::ProcState& state, long long limit,
                      util::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<markov::AvailabilityModel> clone() const override;

    [[nodiscard]] const SemiMarkovParams& params() const noexcept { return params_; }

    /// The time-averaged 1-step transition matrix of an *equivalent* Markov
    /// chain (geometric sojourns with the same means, same jump chain).
    /// This is what a scheduler believing the Markov assumption would fit to
    /// traces of this process; used as the heuristics' belief in experiments.
    [[nodiscard]] markov::TransitionMatrix equivalent_markov_matrix() const;

private:
    /// Ends the current sojourn: draws the jump target and its sojourn.
    markov::ProcState jump(markov::ProcState current, util::Rng& rng);

    SemiMarkovParams params_;
    long long remaining_ = 0; // slots left in the current sojourn
};

/// A desktop-grid-flavoured default parameterization: heavy-tailed UP
/// sojourns (Weibull shape 0.7), shorter RECLAIMED bursts, rare long DOWN
/// periods.  `mean_up_slots` scales all sojourn means proportionally.
SemiMarkovParams desktop_grid_params(double mean_up_slots);

/// Same fleet shape with lognormal sojourns (sigma 1.2 for UP): some
/// empirical studies prefer lognormal fits for availability intervals.
SemiMarkovParams desktop_grid_params_lognormal(double mean_up_slots);

} // namespace volsched::trace
