#pragma once
/// \file chain.hpp
/// A 3-state availability Markov chain: transition matrix + cached limit
/// (stationary) distribution and mean time to DOWN + state sampling.

#include <array>

#include "markov/transition.hpp"
#include "util/rng.hpp"

namespace volsched::markov {

/// Limit distribution (pi_u, pi_r, pi_d) of a chain (Section 5).
struct Stationary {
    double pi_u = 0.0;
    double pi_r = 0.0;
    double pi_d = 0.0;

    [[nodiscard]] double operator[](ProcState s) const noexcept {
        switch (s) {
            case ProcState::Up: return pi_u;
            case ProcState::Reclaimed: return pi_r;
            case ProcState::Down: return pi_d;
        }
        return 0.0;
    }
};

/// Immutable chain: matrix validated at construction, stationary distribution
/// and mean time to DOWN solved once.  Throws std::invalid_argument on an
/// invalid matrix.
class MarkovChain {
public:
    explicit MarkovChain(const TransitionMatrix& matrix);

    [[nodiscard]] const TransitionMatrix& matrix() const noexcept { return matrix_; }
    [[nodiscard]] const Stationary& stationary() const noexcept { return stationary_; }

    /// markov::mean_time_to_down(matrix()), solved at construction: the
    /// value the `daly` checkpoint policy reads at every decision.
    /// +infinity when DOWN is unreachable from UP.
    [[nodiscard]] double mean_time_to_down() const noexcept { return mttd_; }

    /// Samples the state at slot t+1 given the state at slot t.
    [[nodiscard]] ProcState sample_next(ProcState current,
                                        util::Rng& rng) const noexcept;

    /// Samples a state from the stationary distribution (used to start
    /// processors "in the steady-state regime" instead of all-UP).
    [[nodiscard]] ProcState sample_stationary(util::Rng& rng) const noexcept;

    /// Stationary distribution via power iteration — an independent
    /// cross-check of the direct linear solve, used in tests.
    [[nodiscard]] Stationary stationary_power_iteration(
        int iterations = 10000) const noexcept;

private:
    static Stationary solve_stationary(const TransitionMatrix& m);

    TransitionMatrix matrix_;
    Stationary stationary_;
    double mttd_ = 0.0;
    // Per-row cumulative probabilities for O(1)-ish inverse-CDF sampling.
    std::array<std::array<double, 3>, 3> cumulative_{};
};

} // namespace volsched::markov
