/// Bit-identity pins for markov::ExpectationCache: every cached getter —
/// chain-keyed and handle-keyed — must return the exact double the
/// corresponding markov:: free function returns, across the canonical
/// fixture chains, generated chains, and all documented edge cases.  Also
/// covers the invalidation contract (matrix change at a reused address,
/// through pin() and BeliefPins::repin), the hit/miss counters and clear().

#include "markov/expectation_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/belief_pins.hpp"
#include "markov/chain.hpp"
#include "markov/expectation.hpp"
#include "markov/gen.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace vc = volsched::core;
namespace vm = volsched::markov;
namespace vs = volsched::sim;
namespace vt = volsched::test;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The chains every bit-identity sweep runs over: the canonical fixtures
/// (including the degenerate always-up and absorbing cases) plus a spread
/// of generated recipe chains.
std::vector<vm::MarkovChain> sweep_chains() {
    std::vector<vm::MarkovChain> cs;
    cs.push_back(vt::always_up_chain());
    cs.push_back(vt::flaky_chain(0.3));
    cs.push_back(vt::crashy_chain(0.2));
    cs.push_back(vt::self_split_chain(0.95));
    cs.push_back(vt::chain3(0.6, 0.3, 0.2, 0.5, 0.4, 0.1));
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        volsched::util::Rng rng(seed);
        cs.push_back(vm::generate_chain(rng));
    }
    return cs;
}

const double kWorkloads[] = {-3.0, 0.0, 0.25, 1.0, 1.5, 2.0, 7.25, 40.0};
const double kHorizons[] = {0.5, 1.0, 1.75, 2.0, 2.5, 3.0, 17.75, 64.5};
const unsigned kExactHorizons[] = {0u, 1u, 2u, 3u, 7u, 32u};

} // namespace

TEST(ExpectationCache, ChainKeyedGettersMatchFreeFunctionsBitExactly) {
    // EXPECT_EQ on doubles: the cache must agree to the last bit, not
    // within a tolerance.
    vm::ExpectationCache cache;
    for (const auto& chain : sweep_chains()) {
        const auto& m = chain.matrix();
        const auto& pi = chain.stationary();
        // Twice each: first resolves, second replays the memo.
        for (int pass = 0; pass < 2; ++pass) {
            EXPECT_EQ(cache.p_plus(chain), vm::p_plus(m));
            EXPECT_EQ(cache.log_p_plus(chain), std::log(vm::p_plus(m)));
            EXPECT_EQ(cache.e_up(chain), vm::e_up(m));
            EXPECT_EQ(cache.mean_time_to_down(chain),
                      vm::mean_time_to_down(m));
            EXPECT_EQ(cache.mean_time_to_down_from_reclaimed(chain),
                      vm::mean_time_to_down_from_reclaimed(m));
            EXPECT_EQ(cache.mean_recovery_time(chain),
                      vm::mean_recovery_time(m));
            for (const double w : kWorkloads)
                EXPECT_EQ(cache.e_workload(chain, w), vm::e_workload(m, w));
            for (const double k : kHorizons)
                EXPECT_EQ(cache.p_ud_approx(chain, k),
                          vm::p_ud_approx(m, pi.pi_u, pi.pi_r, k));
            for (const unsigned k : kExactHorizons)
                EXPECT_EQ(cache.p_ud_exact(chain, k), vm::p_ud_exact(m, k));
        }
    }
}

TEST(ExpectationCache, HandleGettersMatchFreeFunctionsBitExactly) {
    vm::ExpectationCache cache;
    for (const auto& chain : sweep_chains()) {
        const auto& m = chain.matrix();
        const auto& pi = chain.stationary();
        // Pin twice: a fresh entry, then a re-validation of a warm one.
        for (int pass = 0; pass < 2; ++pass) {
            const auto h = cache.pin(chain);
            EXPECT_EQ(cache.p_plus(h), vm::p_plus(m));
            EXPECT_EQ(cache.log_p_plus(h), std::log(vm::p_plus(m)));
            EXPECT_EQ(cache.e_up(h), vm::e_up(m));
            for (const double w : kWorkloads)
                EXPECT_EQ(cache.e_workload(h, w), vm::e_workload(m, w));
            for (const double k : kHorizons)
                EXPECT_EQ(cache.p_ud_approx(h, k),
                          vm::p_ud_approx(m, pi.pi_u, pi.pi_r, k));
        }
    }
}

TEST(ExpectationCache, AbsorbingReclaimedEdgeCases) {
    // P_rr == 1: P+ collapses to P_uu and E(up) to 1 (the only way back
    // UP is the direct u->u transition).
    const vm::MarkovChain absorbing(vm::TransitionMatrix(
        {{{0.7, 0.2, 0.1}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}}}));
    vm::ExpectationCache cache;
    EXPECT_DOUBLE_EQ(cache.p_plus(absorbing), 0.7);
    EXPECT_DOUBLE_EQ(cache.e_up(absorbing), 1.0);

    // Same but with P_uu == 0: UP is never re-entered, so P+ == 0,
    // log(P+) == -inf, and expectations diverge.
    const vm::MarkovChain dead(vm::TransitionMatrix(
        {{{0.0, 0.5, 0.5}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}}}));
    EXPECT_EQ(cache.p_plus(dead), 0.0);
    EXPECT_EQ(cache.log_p_plus(dead), -kInf);
    EXPECT_EQ(cache.e_up(dead), kInf);
    EXPECT_EQ(cache.e_workload(dead, 5.0), kInf);
    const auto h = cache.pin(dead);
    EXPECT_EQ(cache.log_p_plus(h), -kInf);
    EXPECT_EQ(cache.e_workload(h, 5.0), kInf);
}

TEST(ExpectationCache, WorkloadEarlyOutsSkipTheCache) {
    // workload <= 0 and workload <= 1 return before any chain quantity is
    // touched, exactly like the free function.
    const auto chain = vt::flaky_chain(0.25);
    vm::ExpectationCache cache;
    EXPECT_EQ(cache.e_workload(chain, -2.0), 0.0);
    EXPECT_EQ(cache.e_workload(chain, 0.0), 0.0);
    EXPECT_EQ(cache.e_workload(chain, 0.75), 0.75);
    EXPECT_EQ(cache.e_workload(chain, 1.0), 1.0);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    const auto h = cache.pin(chain);
    EXPECT_EQ(cache.e_workload(h, 0.5), 0.5);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(ExpectationCache, PUdSmallHorizonEdgeCases) {
    const auto chain = vt::crashy_chain(0.15);
    const auto& m = chain.matrix();
    vm::ExpectationCache cache;
    const auto h = cache.pin(chain);
    // k <= 1: certain survival, before any memo interaction.
    EXPECT_EQ(cache.p_ud_approx(chain, 0.5), 1.0);
    EXPECT_EQ(cache.p_ud_approx(chain, 1.0), 1.0);
    EXPECT_EQ(cache.p_ud_approx(h, 1.0), 1.0);
    EXPECT_EQ(cache.p_ud_exact(chain, 0u), 1.0);
    EXPECT_EQ(cache.p_ud_exact(chain, 1u), 1.0);
    // 1 < k <= 2: exactly the first-transition survival 1 - P_ud.
    EXPECT_EQ(cache.p_ud_approx(chain, 1.5), 1.0 - m.p_ud());
    EXPECT_EQ(cache.p_ud_approx(chain, 2.0), 1.0 - m.p_ud());
    EXPECT_EQ(cache.p_ud_approx(h, 2.0), 1.0 - m.p_ud());
}

TEST(ExpectationCache, DegenerateStationaryGivesZeroSurvival) {
    // All steady-state mass on DOWN: pi_u + pi_r == 0, so the approximate
    // survival for k > 2 is 0 — through the cache and the free function.
    const auto chain = vt::chain3(0.2, 0.3, 0.1, 0.2, 0.0, 0.0);
    const auto& pi = chain.stationary();
    ASSERT_EQ(pi.pi_u + pi.pi_r, 0.0);
    vm::ExpectationCache cache;
    EXPECT_EQ(cache.p_ud_approx(chain, 5.0),
              vm::p_ud_approx(chain.matrix(), pi.pi_u, pi.pi_r, 5.0));
    EXPECT_EQ(cache.p_ud_approx(chain, 5.0), 0.0);
}

TEST(ExpectationCache, InvalidatesWhenMatrixChangesAtSameAddress) {
    // Chain identity is the object's address; the entry snapshots the
    // matrix and must detect a different chain rebuilt in the same spot.
    std::optional<vm::MarkovChain> slot;
    slot.emplace(vt::flaky_chain(0.3));
    vm::ExpectationCache cache;
    const double first = cache.p_plus(*slot);
    EXPECT_EQ(first, vm::p_plus(slot->matrix()));
    EXPECT_EQ(cache.invalidations(), 0u);
    EXPECT_EQ(cache.size(), 1u);

    slot.emplace(vt::crashy_chain(0.4));
    const double second = cache.p_plus(*slot);
    EXPECT_EQ(second, vm::p_plus(slot->matrix()));
    EXPECT_NE(second, first);
    EXPECT_EQ(cache.invalidations(), 1u);
    EXPECT_EQ(cache.size(), 1u); // replaced, not duplicated

    // pin() performs the same validation: a handle taken after the swap
    // serves the new chain's values.
    slot.emplace(vt::self_split_chain(0.9));
    const auto h = cache.pin(*slot);
    EXPECT_EQ(cache.p_plus(h), vm::p_plus(slot->matrix()));
    EXPECT_EQ(cache.invalidations(), 2u);

    // Under run 0 (a hand-built view) BeliefPins::repin pins afresh on
    // every call: a chain rebuilt at the same address between rounds, or
    // a cleared cache, is re-pinned, never served stale.
    vs::Platform pf;
    pf.w = {3};
    pf.ncom = 1;
    pf.t_prog = 1;
    pf.t_data = 1;
    std::vector<vs::ProcView> procs(1);
    procs[0].state = vm::ProcState::Up;
    procs[0].w = 3;
    procs[0].belief = &*slot;
    vs::SchedView view;
    view.platform = &pf;
    view.procs = procs;
    vc::BeliefPins pins;
    pins.repin(cache, view);
    EXPECT_EQ(cache.p_plus(pins.handles[0]), vm::p_plus(slot->matrix()));
    const auto counters = [&cache] {
        return std::vector<std::uint64_t>{cache.hits(), cache.misses(),
                                          cache.invalidations()};
    };
    const auto before = counters();
    pins.repin(cache, view); // unchanged belief: pinned again
    EXPECT_EQ(counters(), before) << "repin must count nothing";
    EXPECT_EQ(cache.p_plus(pins.handles[0]), vm::p_plus(slot->matrix()));

    slot.emplace(vt::chain3(0.6, 0.3, 0.2, 0.5, 0.4, 0.1));
    pins.repin(cache, view);
    EXPECT_EQ(cache.p_plus(pins.handles[0]), vm::p_plus(slot->matrix()));
    EXPECT_EQ(cache.e_up(pins.handles[0]), vm::e_up(slot->matrix()));
    EXPECT_EQ(cache.invalidations(), 3u);
    EXPECT_EQ(cache.size(), 1u);

    cache.clear(); // frees the entry the kept handle pointed at
    pins.repin(cache, view);
    EXPECT_EQ(cache.size(), 1u) << "repin after clear() must pin afresh";
    EXPECT_EQ(cache.p_plus(pins.handles[0]), vm::p_plus(slot->matrix()));
    EXPECT_EQ(cache.misses(), 1u);

    // Everything above ran under run 0, a hand-built view that promises
    // nothing.  An engine run (nonzero SchedView::run) fixes every belief
    // and speed, so only its first repin looks at them; later rounds copy
    // the delay column alone.
    view.run = 7;
    pins.repin(cache, view);
    procs[0].delay = 9;
    const auto in_run = counters();
    pins.repin(cache, view);
    EXPECT_EQ(counters(), in_run) << "a same-run repin must count nothing";
    EXPECT_EQ(pins.delay[0], 9.0) << "a same-run repin must copy the delay";
    EXPECT_EQ(cache.p_plus(pins.handles[0]), vm::p_plus(slot->matrix()));
    // The handle is kept without looking at the belief: a chain rebuilt at
    // the same address under the same run (which the run contract rules
    // out) is not even validated...
    const double kept_p_plus = vm::p_plus(slot->matrix());
    slot.emplace(vt::flaky_chain(0.05));
    const auto swapped = counters();
    pins.repin(cache, view);
    pins.refresh(cache, view);
    EXPECT_EQ(counters(), swapped);
    EXPECT_EQ(cache.p_plus(pins.handles[0]), kept_p_plus);
    // ...until the run changes: a new run's first repin pins afresh, and
    // pin()'s matrix check sees the rebuilt chain.
    view.run = 8;
    pins.repin(cache, view);
    EXPECT_EQ(cache.invalidations(), swapped[2] + 1);
    EXPECT_EQ(cache.p_plus(pins.handles[0]), vm::p_plus(slot->matrix()));
    EXPECT_NE(cache.p_plus(pins.handles[0]), kept_p_plus);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ExpectationCache, CountersTrackMissesAndHits) {
    const auto chain = vt::flaky_chain(0.2);
    vm::ExpectationCache cache;
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.size(), 0u);

    (void)cache.p_plus(chain);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.size(), 1u);
    (void)cache.p_plus(chain);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // e_workload(w > 1) resolves E(up) once, then replays it.
    (void)cache.e_workload(chain, 5.0);
    EXPECT_EQ(cache.misses(), 2u);
    (void)cache.e_workload(chain, 6.0);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 2u);

    // p_ud_approx(k > 2) misses twice cold (per-chain ingredients + the
    // per-k power memo) and hits twice warm.
    const std::uint64_t miss0 = cache.misses();
    const std::uint64_t hit0 = cache.hits();
    (void)cache.p_ud_approx(chain, 9.5);
    EXPECT_EQ(cache.misses(), miss0 + 2);
    EXPECT_EQ(cache.hits(), hit0);
    (void)cache.p_ud_approx(chain, 9.5);
    EXPECT_EQ(cache.misses(), miss0 + 2);
    EXPECT_EQ(cache.hits(), hit0 + 2);
    // A different k re-uses the ingredients but pays one pow.
    (void)cache.p_ud_approx(chain, 10.5);
    EXPECT_EQ(cache.misses(), miss0 + 3);
    EXPECT_EQ(cache.hits(), hit0 + 3);

    // A second chain gets its own entry.
    const auto other = vt::crashy_chain(0.1);
    (void)cache.p_plus(other);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ExpectationCache, ClearResetsEntriesAndCounters) {
    const auto chain = vt::flaky_chain(0.2);
    vm::ExpectationCache cache;
    (void)cache.p_plus(chain);
    (void)cache.p_plus(chain);
    (void)cache.p_ud_exact(chain, 6u);
    ASSERT_GT(cache.size(), 0u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.invalidations(), 0u);
    // Next access recomputes from scratch, still bit-exact.
    EXPECT_EQ(cache.p_plus(chain), vm::p_plus(chain.matrix()));
    EXPECT_EQ(cache.misses(), 1u);
}
