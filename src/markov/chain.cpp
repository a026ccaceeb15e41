#include "markov/chain.hpp"

#include <cmath>
#include <stdexcept>

#include "markov/expectation.hpp"

namespace volsched::markov {
namespace {

/// Power iteration from the uniform start — the fallback for singular
/// (reducible / degenerate) chains, where it converges to *a* stationary
/// distribution, which is the sensible answer for simulation purposes.
Stationary power_iterate(const TransitionMatrix& m, int iterations) {
    std::array<double, 3> pi{1.0 / 3, 1.0 / 3, 1.0 / 3};
    for (int it = 0; it < iterations; ++it) {
        std::array<double, 3> next{};
        for (int j = 0; j < kNumStates; ++j)
            for (int i = 0; i < kNumStates; ++i)
                next[j] += pi[i] * m(static_cast<ProcState>(i),
                                     static_cast<ProcState>(j));
        double diff = 0.0;
        for (int j = 0; j < kNumStates; ++j)
            diff += std::fabs(next[j] - pi[j]);
        pi = next;
        if (diff < 1e-15) break;
    }
    return {pi[0], pi[1], pi[2]};
}

} // namespace


MarkovChain::MarkovChain(const TransitionMatrix& matrix) : matrix_(matrix) {
    if (auto err = matrix.validate(); !err.empty())
        throw std::invalid_argument("MarkovChain: invalid matrix: " + err);
    stationary_ = solve_stationary(matrix_);
    mttd_ = markov::mean_time_to_down(matrix_);
    for (int i = 0; i < kNumStates; ++i) {
        double acc = 0.0;
        for (int j = 0; j < kNumStates; ++j) {
            acc += matrix_(static_cast<ProcState>(i), static_cast<ProcState>(j));
            cumulative_[i][j] = acc;
        }
        // Force the last cumulative entry to exactly 1 so a uniform draw of
        // 1-epsilon can never fall off the end due to rounding.
        cumulative_[i][kNumStates - 1] = 1.0;
    }
}

ProcState MarkovChain::sample_next(ProcState current,
                                   util::Rng& rng) const noexcept {
    const double r = rng.uniform();
    const auto& cum = cumulative_[static_cast<int>(current)];
    if (r < cum[0]) return ProcState::Up;
    if (r < cum[1]) return ProcState::Reclaimed;
    return ProcState::Down;
}

ProcState MarkovChain::sample_stationary(util::Rng& rng) const noexcept {
    const double r = rng.uniform();
    if (r < stationary_.pi_u) return ProcState::Up;
    if (r < stationary_.pi_u + stationary_.pi_r) return ProcState::Reclaimed;
    return ProcState::Down;
}

Stationary MarkovChain::stationary_power_iteration(int iterations) const noexcept {
    return power_iterate(matrix_, iterations);
}

Stationary MarkovChain::solve_stationary(const TransitionMatrix& m) {
    // Solve pi * P = pi, sum(pi) = 1, i.e. (P^T - I) pi = 0 with the third
    // equation replaced by the normalization constraint.  3x3 Gaussian
    // elimination with partial pivoting; falls back to power iteration for
    // (near-)singular systems such as reducible chains.
    double a[3][4] = {};
    for (int i = 0; i < 2; ++i) { // two eigen-equations suffice
        for (int j = 0; j < 3; ++j)
            a[i][j] = m(static_cast<ProcState>(j), static_cast<ProcState>(i)) -
                      (i == j ? 1.0 : 0.0);
        a[i][3] = 0.0;
    }
    a[2][0] = a[2][1] = a[2][2] = 1.0;
    a[2][3] = 1.0;

    for (int col = 0; col < 3; ++col) {
        int pivot = col;
        for (int r = col + 1; r < 3; ++r)
            if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
        if (std::fabs(a[pivot][col]) < 1e-13) {
            return power_iterate(m, 10000);
        }
        for (int k = 0; k < 4; ++k) std::swap(a[col][k], a[pivot][k]);
        for (int r = 0; r < 3; ++r) {
            if (r == col) continue;
            const double f = a[r][col] / a[col][col];
            for (int k = col; k < 4; ++k) a[r][k] -= f * a[col][k];
        }
    }
    Stationary pi;
    pi.pi_u = a[0][3] / a[0][0];
    pi.pi_r = a[1][3] / a[1][1];
    pi.pi_d = a[2][3] / a[2][2];
    // Clamp tiny negative round-off and renormalize.
    pi.pi_u = std::max(pi.pi_u, 0.0);
    pi.pi_r = std::max(pi.pi_r, 0.0);
    pi.pi_d = std::max(pi.pi_d, 0.0);
    const double sum = pi.pi_u + pi.pi_r + pi.pi_d;
    if (sum > 0) {
        pi.pi_u /= sum;
        pi.pi_r /= sum;
        pi.pi_d /= sum;
    }
    return pi;
}

} // namespace volsched::markov
