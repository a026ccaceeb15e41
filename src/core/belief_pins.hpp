#pragma once
/// \file belief_pins.hpp
/// Per-run scoring scratch: pinned expectation-cache handles plus
/// contiguous copies of the run-constant per-processor quantities the
/// scoring kernel reads.
///
/// Resolving a worker's belief chain in the expectation cache on every
/// score (hash probe + matrix validation) would cost about as much as
/// recomputing the closed forms.  Instead the schedulers pin every belief
/// once and keep the results in columns indexed by processor id:
///
///   handles — expectation-cache pins; reads through a handle are a
///             branch and a load
///   beliefs — the belief chain pointers (null for uninformed workers)
///   w       — w_q pre-cast to double (exact: an int)
///
/// The snapshot is keyed on SchedView::run, which fixes every belief and
/// speed for the whole run (sim/scheduler.hpp), so only a run's first
/// repin() touches the beliefs: the later rounds' calls are a few
/// compares.  Delay(q), the one per-worker input a run lets move, is not
/// copied: the kernel reads it from the view, whose row it loads anyway.
/// A hand-built view (run 0) promises nothing and is pinned in full on
/// every call.  select() calls repin() too, so a caller that skips
/// begin_round() still scores against a current snapshot.
///
/// Handles are validated at pin time: a chain destroyed and rebuilt at
/// the same address between runs is caught by the pin's matrix check,
/// per the cache's invalidation contract.  A cleared cache (a new epoch)
/// is pinned afresh even within a run.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "markov/expectation_cache.hpp"
#include "sim/scheduler.hpp"

namespace volsched::core {

struct BeliefPins {
    /// Pins every column unless `view`'s run is already pinned (never the
    /// case for run 0).
    void repin(markov::ExpectationCache& cache, const sim::SchedView& view) {
        if (!pinned(cache, view)) pin_all(cache, view);
    }

    std::vector<markov::ExpectationCache::Handle> handles;
    std::vector<const markov::MarkovChain*> beliefs;
    std::vector<double> w;

private:
    /// True when every column already holds `view`'s run: the same
    /// nonzero run, and handles that are still live in `cache`.
    [[nodiscard]] bool pinned(const markov::ExpectationCache& cache,
                              const sim::SchedView& view) const {
        return view.run != 0 && view.run == pinned_run &&
               pinned_cache == &cache && pinned_epoch == cache.epoch() &&
               beliefs.size() == view.procs.size();
    }

    /// Pins every column for `view` (belief_pins.cpp: kept out of line so
    /// repin() stays a few inlined compares).
    void pin_all(markov::ExpectationCache& cache, const sim::SchedView& view);

    /// The run the columns belong to (0: none yet, or a hand-built view).
    std::uint64_t pinned_run = 0;
    /// The cache and epoch the handles belong to.
    const markov::ExpectationCache* pinned_cache = nullptr;
    std::uint64_t pinned_epoch = 0;
};

} // namespace volsched::core
