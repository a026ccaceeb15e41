#include "core/belief_pins.hpp"

namespace volsched::core {

void BeliefPins::pin_all(markov::ExpectationCache& cache,
                         const sim::SchedView& view) {
    const std::size_t n = view.procs.size();
    pinned_run = view.run;
    pinned_cache = &cache;
    pinned_epoch = cache.epoch();
    handles.resize(n);
    beliefs.resize(n);
    w.resize(n);
    for (std::size_t q = 0; q < n; ++q) {
        const sim::ProcView& pv = view.procs[q];
        beliefs[q] = pv.belief;
        handles[q] = pv.belief ? cache.pin(*pv.belief)
                               : markov::ExpectationCache::Handle{};
        w[q] = static_cast<double>(pv.w);
    }
}

} // namespace volsched::core
