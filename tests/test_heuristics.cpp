#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>

#include "api/registry.hpp"
#include "core/ct.hpp"
#include "core/factory.hpp"
#include "markov/expectation.hpp"
#include "sim/engine.hpp"
#include "sim/metrics_io.hpp"
#include "sim/scheduler.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace vc = volsched::core;
namespace vt = volsched::test;
namespace vs = volsched::sim;
namespace vm = volsched::markov;

using volsched::test::ViewFixture;
using volsched::test::all_procs;
using volsched::test::always_up_chain;
using volsched::test::crashy_chain;
using volsched::test::flaky_chain;

TEST(Ct, PlainMatchesEquation1) {
    ViewFixture f(2, 4, 10, 3);
    f.procs[0].delay = 7;
    f.procs[0].w = 5;
    auto& view = f.finalize();
    // n = 1: Delay + Tdata + w = 7 + 3 + 5.
    EXPECT_DOUBLE_EQ(vc::ct_plain(view, 0, 1), 15.0);
    // n = 3: + 2 * max(Tdata, w) = + 10.
    EXPECT_DOUBLE_EQ(vc::ct_plain(view, 0, 3), 25.0);
}

TEST(Ct, PlainUsesMaxOfDataAndCompute) {
    ViewFixture f(1, 4, 10, 9);
    f.procs[0].w = 2;
    auto& view = f.finalize();
    // max(Tdata, w) = 9 dominates the pipeline of queued tasks.
    EXPECT_DOUBLE_EQ(vc::ct_plain(view, 0, 2), 0 + 9 + 9 + 2);
}

TEST(Ct, CorrectedAppliesCongestionFactor) {
    ViewFixture f(2, 2, 10, 3);
    f.procs[0].w = 5;
    auto& view = f.finalize(/*nactive=*/3, /*remaining=*/4);
    // Prospective enrolment: nactive 3 -> 4; ceil(4/2) = 2 -> Tdata' = 6.
    EXPECT_DOUBLE_EQ(vc::ct_corrected(view, 0, 1, /*already=*/false),
                     0 + 6 + 5);
    // Already active: ceil(3/2) = 2 as well.
    EXPECT_DOUBLE_EQ(vc::ct_corrected(view, 0, 1, /*already=*/true),
                     0 + 6 + 5);
    // Low activity: factor 1 reduces to Eq. (1).
    auto& view2 = f.finalize(/*nactive=*/0);
    EXPECT_DOUBLE_EQ(vc::ct_corrected(view2, 0, 1, false),
                     vc::ct_plain(view2, 0, 1));
}

TEST(Factory, AllSeventeenNamesConstruct) {
    const auto& names = vc::all_heuristic_names();
    EXPECT_EQ(names.size(), 17u);
    for (const auto& name : names) {
        const auto sched = vt::make_scheduler(name);
        ASSERT_NE(sched, nullptr) << name;
        EXPECT_EQ(sched->name(), name);
    }
}

TEST(Factory, GreedySubsetIsEight) {
    EXPECT_EQ(vc::greedy_heuristic_names().size(), 8u);
}

TEST(Factory, UnknownNameThrows) {
    EXPECT_THROW(vt::make_scheduler("bogus"), std::invalid_argument);
    EXPECT_THROW(vt::make_scheduler("EMCT"), std::invalid_argument); // case
}

TEST(Mct, PicksSmallestCompletionTime) {
    ViewFixture f(3, 4, 10, 2);
    f.procs[0].w = 9;
    f.procs[1].w = 2; // fastest
    f.procs[2].w = 5;
    f.procs[1].delay = 0;
    auto& view = f.finalize();
    auto sched = vt::make_scheduler("mct");
    std::vector<int> nq(3, 0);
    volsched::util::Rng rng(1);
    EXPECT_EQ(sched->select(view, all_procs(3), nq, rng), 1);
}

TEST(Mct, DelayOutweighsSpeed) {
    ViewFixture f(2, 4, 10, 2);
    f.procs[0].w = 2;
    f.procs[0].delay = 50; // fast but busy
    f.procs[1].w = 4;
    f.procs[1].delay = 0;
    auto& view = f.finalize();
    auto sched = vt::make_scheduler("mct");
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(1);
    EXPECT_EQ(sched->select(view, all_procs(2), nq, rng), 1);
}

TEST(Mct, QueueLengthMatters) {
    ViewFixture f(2, 4, 10, 2);
    f.procs[0].w = 3;
    f.procs[1].w = 4;
    auto& view = f.finalize();
    auto sched = vt::make_scheduler("mct");
    volsched::util::Rng rng(1);
    // First pick: P0 (faster).  With 3 tasks already queued on P0 this
    // round, the next task goes to P1.
    std::vector<int> nq = {0, 0};
    EXPECT_EQ(sched->select(view, all_procs(2), nq, rng), 0);
    nq = {3, 0};
    EXPECT_EQ(sched->select(view, all_procs(2), nq, rng), 1);
}

TEST(Emct, ReducesToMctWhenNoReclaimed) {
    // P+ = 1 and E(W) = W for an always-up chain: EMCT == MCT choice.
    ViewFixture f(2, 4, 10, 2);
    f.procs[0].w = 3;
    f.procs[1].w = 7;
    f.set_chains({always_up_chain(), always_up_chain()});
    auto& view = f.finalize();
    auto emct = vt::make_scheduler("emct");
    auto mct = vt::make_scheduler("mct");
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(1);
    EXPECT_EQ(emct->select(view, all_procs(2), nq, rng),
              mct->select(view, all_procs(2), nq, rng));
}

TEST(Emct, PenalizesReclaimedProneProcessor) {
    // Equal speed; P0 detours via RECLAIMED half the time, P1 never.
    ViewFixture f(2, 4, 10, 2);
    f.procs[0].w = 3;
    f.procs[1].w = 3;
    f.set_chains({flaky_chain(0.5), always_up_chain()});
    auto& view = f.finalize();
    auto emct = vt::make_scheduler("emct");
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(1);
    EXPECT_EQ(emct->select(view, all_procs(2), nq, rng), 1);
    // MCT cannot see the difference and keeps the tie-break winner P0.
    auto mct = vt::make_scheduler("mct");
    EXPECT_EQ(mct->select(view, all_procs(2), nq, rng), 0);
}

TEST(Emct, FlakyButMuchFasterCanStillWin) {
    // EMCT trades expected detours against raw speed.
    ViewFixture f(2, 4, 10, 2);
    f.procs[0].w = 2;  // fast, mildly flaky
    f.procs[1].w = 20; // reliable but 10x slower
    f.set_chains({flaky_chain(0.05), always_up_chain()});
    auto& view = f.finalize();
    auto emct = vt::make_scheduler("emct");
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(1);
    EXPECT_EQ(emct->select(view, all_procs(2), nq, rng), 0);
}

TEST(Lw, PrefersCrashSafeProcessor) {
    // Equal CT; P0 crashes with 5% per UP slot, P1 never.
    ViewFixture f(2, 4, 10, 2);
    f.procs[0].w = 3;
    f.procs[1].w = 3;
    f.set_chains({crashy_chain(0.05), always_up_chain()});
    auto& view = f.finalize();
    auto lw = vt::make_scheduler("lw");
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(1);
    EXPECT_EQ(lw->select(view, all_procs(2), nq, rng), 1);
}

TEST(Lw, AllSafeFallsBackToCtTieBreak) {
    ViewFixture f(2, 4, 10, 2);
    f.procs[0].w = 9;
    f.procs[1].w = 2;
    f.set_chains({always_up_chain(), always_up_chain()});
    auto& view = f.finalize();
    auto lw = vt::make_scheduler("lw");
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(1);
    // P+ = 1 for both: scores tie at 0, the smaller CT (P1) wins.
    EXPECT_EQ(lw->select(view, all_procs(2), nq, rng), 1);
}

TEST(Ud, PrefersLowCrashProbabilityOverWorkload) {
    ViewFixture f(2, 4, 10, 2);
    f.procs[0].w = 3;
    f.procs[1].w = 3;
    f.set_chains({crashy_chain(0.10), crashy_chain(0.01)});
    auto& view = f.finalize();
    auto ud = vt::make_scheduler("ud");
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(1);
    EXPECT_EQ(ud->select(view, all_procs(2), nq, rng), 1);
}

TEST(StarredVariants, ReactToCongestion) {
    // With heavy round activity, the starred CT inflates Tdata; a processor
    // whose w dominates Tdata is then preferred over a queue on the fast
    // one.  Construct: P0 fast (w=1), already 1 task; P1 slower (w=4).
    ViewFixture f(2, 1, 10, 3);
    f.procs[0].w = 1;
    f.procs[1].w = 4;
    auto mct_star = vt::make_scheduler("mct*");
    auto mct = vt::make_scheduler("mct");
    volsched::util::Rng rng(1);
    std::vector<int> nq = {1, 0};
    // Plain: CT(P0)=3+max(3,1)+1=7 (n=2), CT(P1)=3+4=7 -> tie, P0 by CT tie?
    // both 7 -> lower index wins.
    auto& view_plain = f.finalize(/*nactive=*/1);
    EXPECT_EQ(mct->select(view_plain, all_procs(2), nq, rng), 0);
    // Starred with nactive=1 (P0 active): for P1 prospective nactive=2,
    // factor ceil(2/1)=2 -> Tdata'=6: CT(P1)=6+4=10;
    // for P0 factor ceil(1/1)=1 -> CT(P0)=3+3+1=7 -> P0 still.
    EXPECT_EQ(mct_star->select(view_plain, all_procs(2), nq, rng), 0);
}

TEST(RandomHeuristics, UniformCoversAllEligible) {
    ViewFixture f(4, 4, 10, 2);
    auto& view = f.finalize();
    auto sched = vt::make_scheduler("random");
    std::vector<int> nq(4, 0);
    volsched::util::Rng rng(5);
    std::map<int, int> counts;
    for (int i = 0; i < 4000; ++i)
        ++counts[sched->select(view, all_procs(4), nq, rng)];
    for (int q = 0; q < 4; ++q)
        EXPECT_NEAR(counts[q], 1000, 150) << q;
}

TEST(RandomHeuristics, Random1FavorsStableUp) {
    // P0: P_uu = 0.5; P1: P_uu = 1.0 -> P1 picked ~2/3 of the time.
    ViewFixture f(2, 4, 10, 2);
    f.set_chains({flaky_chain(0.5), always_up_chain()});
    auto& view = f.finalize();
    auto sched = vt::make_scheduler("random1");
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(6);
    int p1 = 0;
    const int n = 30000;
    for (int i = 0; i < n; ++i)
        p1 += (sched->select(view, all_procs(2), nq, rng) == 1);
    EXPECT_NEAR(p1 / static_cast<double>(n), 1.0 / 1.5, 0.02);
}

TEST(RandomHeuristics, SpeedWeightingPrefersFastProcessors) {
    // random1w with equal chains: weights 1/w -> P1 (w=1) over P0 (w=4).
    ViewFixture f(2, 4, 10, 2);
    f.procs[0].w = 4;
    f.procs[1].w = 1;
    f.set_chains({always_up_chain(), always_up_chain()});
    auto& view = f.finalize();
    auto sched = vt::make_scheduler("random1w");
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(7);
    int p1 = 0;
    const int n = 30000;
    for (int i = 0; i < n; ++i)
        p1 += (sched->select(view, all_procs(2), nq, rng) == 1);
    EXPECT_NEAR(p1 / static_cast<double>(n), 0.8, 0.02);
}

TEST(RandomHeuristics, RespectsEligibleSubset) {
    ViewFixture f(4, 4, 10, 2);
    auto& view = f.finalize();
    auto sched = vt::make_scheduler("random");
    std::vector<int> nq(4, 0);
    volsched::util::Rng rng(8);
    const std::vector<vs::ProcId> eligible = {1, 3};
    for (int i = 0; i < 500; ++i) {
        const auto q = sched->select(view, eligible, nq, rng);
        EXPECT_TRUE(q == 1 || q == 3);
    }
}

TEST(GreedyHeuristics, DeterministicAcrossCalls) {
    ViewFixture f(5, 4, 10, 2);
    for (int q = 0; q < 5; ++q) f.procs[q].w = 1 + q;
    auto& view = f.finalize();
    std::vector<int> nq(5, 0);
    volsched::util::Rng rng(9);
    for (const auto& name : vc::greedy_heuristic_names()) {
        auto sched = vt::make_scheduler(name);
        const auto first = sched->select(view, all_procs(5), nq, rng);
        for (int i = 0; i < 10; ++i)
            EXPECT_EQ(sched->select(view, all_procs(5), nq, rng), first)
                << name;
    }
}

TEST(Schedulers, ReusedAcrossRunsDecidesLikeAFreshInstance) {
    // One scheduler may serve several runs in turn (bench_ckpt reuses one
    // across seeds).  Fleets A and B have the same size but different
    // chains and speeds, and the engine builds every run's SchedView in
    // the same stack slot, so per-run state keyed on the view's address
    // would carry A's weights into B.  Every registered spec (a wrapper
    // around a random-family inner) must run B exactly as a fresh
    // instance does, cache counters included.  Under address-keyed
    // weights this fleet pair makes all eight weighted random specs and
    // thr25:random1 diverge.
    const auto a = vt::recipe_setup(6, 1, 2, 1);
    const auto b = vt::recipe_setup(6, 1, 2, 101);
    const auto cfg = vt::audited_config(3, 8);
    const auto sim_a =
        vs::Simulation::from_chains(a.platform, a.chains, cfg, 5);
    const auto sim_b =
        vs::Simulation::from_chains(b.platform, b.chains, cfg, 6);
    const auto entries = volsched::api::SchedulerRegistry::instance().entries();
    ASSERT_GE(entries.size(), 19u);
    for (const auto& info : entries) {
        std::string spec = info.name;
        if (info.takes_inner)
            spec += (info.shorthand_option.empty() ? "" : "25") +
                    std::string(":random1");
        const auto reused = vt::make_scheduler(spec);
        (void)sim_a.run(*reused);
        const auto fresh = vt::make_scheduler(spec);
        EXPECT_EQ(vs::metrics_to_json(sim_b.run(*reused)),
                  vs::metrics_to_json(sim_b.run(*fresh)))
            << spec;
    }
}
