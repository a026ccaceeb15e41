#include "trace/semi_markov.hpp"

#include <cmath>
#include <stdexcept>

namespace volsched::trace {

using markov::ProcState;

long long Weibull::sample_slots(util::Rng& rng) const {
    return dist().sample_slots(rng);
}

bool SemiMarkovParams::valid(double tol) const noexcept {
    for (int i = 0; i < markov::kNumStates; ++i) {
        if (jump[i][i] != 0.0) return false;
        double sum = 0.0;
        for (int j = 0; j < markov::kNumStates; ++j) {
            if (jump[i][j] < 0.0 || jump[i][j] > 1.0) return false;
            sum += jump[i][j];
        }
        if (std::fabs(sum - 1.0) > tol) return false;
    }
    for (const auto& s : sojourn)
        if (!s.valid()) return false;
    return true;
}

SemiMarkovAvailability::SemiMarkovAvailability(SemiMarkovParams params)
    : params_(params) {
    if (!params_.valid())
        throw std::invalid_argument(
            "SemiMarkovAvailability: invalid parameters");
}

ProcState SemiMarkovAvailability::initial_state(util::Rng& rng) {
    remaining_ = params_.sojourn[0].sample_slots(rng); // start UP
    return ProcState::Up;
}

ProcState SemiMarkovAvailability::next_state(ProcState current,
                                             util::Rng& rng) {
    if (remaining_ > 1) {
        --remaining_;
        return current;
    }
    return jump(current, rng);
}

long long SemiMarkovAvailability::advance(ProcState& state, long long limit,
                                          util::Rng& rng) {
    long long n = 0;
    while (true) {
        // The slots left in this sojourn after the current one draw nothing.
        const long long stay = remaining_ > 1 ? remaining_ - 1 : 0;
        if (stay >= limit - n) {
            remaining_ -= limit - n;
            return limit;
        }
        n += stay + 1;
        remaining_ -= stay;
        // A jump row may round onto its own state: the run then goes on.
        const ProcState next = jump(state, rng);
        if (next != state) {
            state = next;
            return n;
        }
        if (n == limit) return n;
    }
}

ProcState SemiMarkovAvailability::jump(ProcState current, util::Rng& rng) {
    // Sojourn expired: jump to a different state and draw its sojourn.
    const auto& row = params_.jump[static_cast<int>(current)];
    const double r = rng.uniform();
    ProcState next;
    if (r < row[0]) next = ProcState::Up;
    else if (r < row[0] + row[1]) next = ProcState::Reclaimed;
    else next = ProcState::Down;
    remaining_ = params_.sojourn[static_cast<int>(next)].sample_slots(rng);
    return next;
}

std::unique_ptr<markov::AvailabilityModel> SemiMarkovAvailability::clone() const {
    return std::make_unique<SemiMarkovAvailability>(params_);
}

markov::TransitionMatrix SemiMarkovAvailability::equivalent_markov_matrix() const {
    // A geometric sojourn with the same mean has per-slot exit probability
    // 1/mean; the exit mass is split per the jump chain.
    std::array<std::array<double, 3>, 3> rows{};
    for (int i = 0; i < markov::kNumStates; ++i) {
        const double mean = params_.sojourn[i].mean();
        const double exit = mean <= 1.0 ? 1.0 : 1.0 / mean;
        for (int j = 0; j < markov::kNumStates; ++j)
            rows[i][j] = (i == j) ? 1.0 - exit : exit * params_.jump[i][j];
    }
    return markov::TransitionMatrix(rows);
}

namespace {

/// Shared fleet shape: UP = m, RECLAIMED = m/4 (coffee-break preemptions),
/// DOWN = m/2 (reboots / long failures); preemption far more common than a
/// crash; RECLAIMED mostly returns UP; a finished DOWN reboots into UP.
SemiMarkovParams desktop_grid_shape(double mean_up_slots,
                                    const std::array<SojournDist, 3>& dists) {
    if (mean_up_slots < 1.0)
        throw std::invalid_argument("desktop_grid_params: mean_up_slots < 1");
    SemiMarkovParams p;
    p.sojourn = dists;
    p.jump[0] = {0.0, 0.85, 0.15};
    p.jump[1] = {0.90, 0.0, 0.10};
    p.jump[2] = {0.95, 0.05, 0.0};
    return p;
}

} // namespace

SemiMarkovParams desktop_grid_params(double mean_up_slots) {
    if (mean_up_slots < 1.0)
        throw std::invalid_argument("desktop_grid_params: mean_up_slots < 1");
    return desktop_grid_shape(
        mean_up_slots,
        {SojournDist::weibull_with_mean(0.7, mean_up_slots),
         SojournDist::weibull_with_mean(0.9, mean_up_slots / 4.0),
         SojournDist::weibull_with_mean(0.8, mean_up_slots / 2.0)});
}

SemiMarkovParams desktop_grid_params_lognormal(double mean_up_slots) {
    if (mean_up_slots < 1.0)
        throw std::invalid_argument(
            "desktop_grid_params_lognormal: mean_up_slots < 1");
    return desktop_grid_shape(
        mean_up_slots,
        {SojournDist::lognormal_with_mean(1.2, mean_up_slots),
         SojournDist::lognormal_with_mean(0.8, mean_up_slots / 4.0),
         SojournDist::lognormal_with_mean(1.0, mean_up_slots / 2.0)});
}

} // namespace volsched::trace
