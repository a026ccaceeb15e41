#include "markov/expectation_cache.hpp"

namespace volsched::markov {

ExpectationCache::Entry& ExpectationCache::entry(const MarkovChain& chain) {
    // MRU fast path: one score evaluation typically reads two or three
    // quantities of the same chain back to back — skip the hash probe for
    // those.  The matrix re-validation stays even here: address reuse must
    // be caught on the very next access.
    if (&chain == mru_chain_ &&
        same_matrix(mru_entry_->matrix, chain.matrix()))
        return *mru_entry_;
    auto [it, inserted] = entries_.try_emplace(&chain);
    if (inserted) {
        it->second.matrix = chain.matrix();
        it->second.pi_u = chain.stationary().pi_u;
        it->second.pi_r = chain.stationary().pi_r;
    } else if (!same_matrix(it->second.matrix, chain.matrix())) {
        it->second = Entry{};
        it->second.matrix = chain.matrix();
        it->second.pi_u = chain.stationary().pi_u;
        it->second.pi_r = chain.stationary().pi_r;
        ++invalidations_;
    }
    mru_chain_ = &chain;
    mru_entry_ = &it->second;
    return it->second;
}

double ExpectationCache::p_plus(const MarkovChain& chain) {
    return scalar(entry(chain), kPPlus);
}

double ExpectationCache::log_p_plus(const MarkovChain& chain) {
    return scalar(entry(chain), kLogPPlus);
}

double ExpectationCache::e_up(const MarkovChain& chain) {
    return scalar(entry(chain), kEUp);
}

double ExpectationCache::e_workload(const MarkovChain& chain,
                                    double workload) {
    // Same early-outs as the free function, taken before any cache work.
    if (workload <= 0.0) return 0.0;
    if (workload <= 1.0) return workload;
    const double eu = scalar(entry(chain), kEUp);
    if (std::isinf(eu)) return std::numeric_limits<double>::infinity();
    return 1.0 + (workload - 1.0) * eu;
}

double ExpectationCache::p_ud_exact(const MarkovChain& chain, unsigned k) {
    if (k <= 1) return 1.0;
    Entry& e = entry(chain);
    const auto it = e.ud_exact.find(k);
    if (it != e.ud_exact.end()) {
        ++hits_;
        return it->second;
    }
    const double v = markov::p_ud_exact(e.matrix, k);
    e.ud_exact.emplace(k, v);
    ++misses_;
    return v;
}

double ExpectationCache::p_ud_approx(const MarkovChain& chain, double k) {
    // Mirror the free function's branch order exactly: the k <= 1 return
    // precedes any chain quantity, and k <= 2 stops at the memoized
    // first-slot factor — neither ever reaches the power term.
    if (k <= 1.0) return 1.0;
    return p_ud_approx_entry(entry(chain), k);
}

double ExpectationCache::mean_time_to_down(const MarkovChain& chain) {
    return scalar(entry(chain), kMeanTimeToDown);
}

double ExpectationCache::mean_time_to_down_from_reclaimed(
    const MarkovChain& chain) {
    return scalar(entry(chain), kMeanTimeToDownFromReclaimed);
}

double ExpectationCache::mean_recovery_time(const MarkovChain& chain) {
    return scalar(entry(chain), kMeanRecoveryTime);
}

void ExpectationCache::clear() noexcept {
    mru_chain_ = nullptr;
    mru_entry_ = nullptr;
    entries_.clear();
    ++epoch_;
    hits_ = 0;
    misses_ = 0;
    invalidations_ = 0;
}

} // namespace volsched::markov
