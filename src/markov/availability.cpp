#include "markov/availability.hpp"

namespace volsched::markov {

long long AvailabilityModel::advance(ProcState& state, long long limit,
                                     util::Rng& rng) {
    for (long long n = 1; n <= limit; ++n) {
        const ProcState next = next_state(state, rng);
        if (next != state) {
            state = next;
            return n;
        }
    }
    return limit;
}

MarkovAvailability::MarkovAvailability(MarkovChain chain, InitialState init)
    : chain_(std::move(chain)), init_(init) {}

ProcState MarkovAvailability::initial_state(util::Rng& rng) {
    switch (init_) {
        case InitialState::AlwaysUp: return ProcState::Up;
        case InitialState::Stationary: return chain_.sample_stationary(rng);
    }
    return ProcState::Up;
}

ProcState MarkovAvailability::next_state(ProcState current, util::Rng& rng) {
    return chain_.sample_next(current, rng);
}

std::unique_ptr<AvailabilityModel> MarkovAvailability::clone() const {
    return std::make_unique<MarkovAvailability>(chain_, init_);
}

} // namespace volsched::markov
