/// Stochastic engine tests: audited runs on recipe-generated Markov
/// platforms, conservation laws, determinism, and scheduler-independent
/// availability.

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "markov/gen.hpp"
#include "sim/engine.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace vs = volsched::sim;
namespace vm = volsched::markov;
namespace vc = volsched::core;
namespace vt = volsched::test;

using volsched::test::recipe_setup;

namespace {

vs::EngineConfig audited(int iterations, int tasks) {
    return volsched::test::audited_config(iterations, tasks);
}

} // namespace

TEST(EngineStochastic, AuditedRunCompletesUnderEveryHeuristic) {
    const auto s = recipe_setup(8, 3, 2, 42);
    const auto sim =
        vs::Simulation::from_chains(s.platform, s.chains, audited(3, 6), 7);
    for (const auto& name : vc::all_heuristic_names()) {
        const auto sched = vt::make_scheduler(name);
        const auto metrics = sim.run(*sched);
        EXPECT_TRUE(metrics.completed) << name;
        EXPECT_GT(metrics.makespan, 0) << name;
    }
}

TEST(EngineStochastic, TasksConservation) {
    const auto s = recipe_setup(6, 2, 1, 43);
    const auto sim =
        vs::Simulation::from_chains(s.platform, s.chains, audited(4, 5), 9);
    const auto sched = vt::make_scheduler("emct*");
    const auto metrics = sim.run(*sched);
    ASSERT_TRUE(metrics.completed);
    EXPECT_EQ(metrics.tasks_completed, 4 * 5);
    EXPECT_EQ(metrics.iterations_completed, 4);
}

TEST(EngineStochastic, SameSeedSameOutcome) {
    const auto s = recipe_setup(10, 5, 2, 44);
    const auto sim =
        vs::Simulation::from_chains(s.platform, s.chains, audited(2, 8), 11);
    const auto sched1 = vt::make_scheduler("ud*");
    const auto sched2 = vt::make_scheduler("ud*");
    const auto m1 = sim.run(*sched1);
    const auto m2 = sim.run(*sched2);
    EXPECT_EQ(m1.makespan, m2.makespan);
    EXPECT_EQ(m1.transfer_slots, m2.transfer_slots);
    EXPECT_EQ(m1.compute_slots, m2.compute_slots);
    EXPECT_EQ(m1.down_events, m2.down_events);
}

TEST(EngineStochastic, DifferentSeedsDifferentOutcomes) {
    const auto s = recipe_setup(10, 5, 2, 45);
    const auto a =
        vs::Simulation::from_chains(s.platform, s.chains, audited(2, 8), 1);
    const auto b =
        vs::Simulation::from_chains(s.platform, s.chains, audited(2, 8), 2);
    const auto sched = vt::make_scheduler("mct");
    // Makespans could coincide by chance; down-event counts almost surely
    // differ across independent availability realizations of this length.
    const auto ma = a.run(*sched);
    const auto mb = b.run(*sched);
    EXPECT_TRUE(ma.makespan != mb.makespan ||
                ma.down_events != mb.down_events);
}

TEST(EngineStochastic, AvailabilityIndependentOfScheduler) {
    // The availability realization is a function of the seed only, so two
    // different schedulers running "side by side" must observe comparable
    // volatility.  down_events depends on how long the run lasts, so compare
    // the rate on runs of the same seed via a scheduler-independent proxy:
    // re-running the same scheduler twice must give identical down_events,
    // and a second scheduler's events-per-slot must be similar.
    const auto s = recipe_setup(10, 5, 1, 46);
    const auto sim =
        vs::Simulation::from_chains(s.platform, s.chains, audited(3, 10), 21);
    const auto mct = vt::make_scheduler("mct");
    const auto rnd = vt::make_scheduler("random");
    const auto m1 = sim.run(*mct);
    const auto m2 = sim.run(*rnd);
    ASSERT_TRUE(m1.completed);
    ASSERT_TRUE(m2.completed);
    const double rate1 =
        static_cast<double>(m1.down_events) / static_cast<double>(m1.makespan);
    const double rate2 =
        static_cast<double>(m2.down_events) / static_cast<double>(m2.makespan);
    EXPECT_NEAR(rate1, rate2, 0.5 * std::max(rate1, rate2));
}

TEST(EngineStochastic, BandwidthAccountingIsBounded) {
    const auto s = recipe_setup(12, 4, 1, 47);
    const auto sim =
        vs::Simulation::from_chains(s.platform, s.chains, audited(2, 10), 31);
    const auto sched = vt::make_scheduler("emct");
    const auto metrics = sim.run(*sched);
    ASSERT_TRUE(metrics.completed);
    // ncom transfers per slot at most.
    EXPECT_LE(metrics.transfer_slots,
              static_cast<long long>(s.platform.ncom) * metrics.makespan);
    // Minimum useful transfer volume: every task needs its data once.
    EXPECT_GE(metrics.transfer_slots,
              static_cast<long long>(2 * 10) * s.platform.t_data);
}

TEST(EngineStochastic, ComputeAccountingIsBounded) {
    const auto s = recipe_setup(8, 4, 1, 48);
    const auto sim =
        vs::Simulation::from_chains(s.platform, s.chains, audited(2, 6), 33);
    const auto sched = vt::make_scheduler("mct*");
    const auto metrics = sim.run(*sched);
    ASSERT_TRUE(metrics.completed);
    int w_min = s.platform.w[0], w_max = s.platform.w[0];
    for (int w : s.platform.w) {
        w_min = std::min(w_min, w);
        w_max = std::max(w_max, w);
    }
    // Useful compute: every completed task costs at least w_min slots.
    EXPECT_GE(metrics.compute_slots,
              metrics.tasks_completed * static_cast<long long>(w_min));
    // And wasted + useful is bounded by p * makespan.
    EXPECT_LE(metrics.compute_slots,
              static_cast<long long>(s.platform.w.size()) * metrics.makespan);
}

TEST(EngineStochastic, StickyPlanAuditsCleanly) {
    const auto s = recipe_setup(8, 3, 2, 49);
    auto cfg = audited(2, 6);
    cfg.plan_class = vs::SchedulerClass::Passive;
    const auto sim = vs::Simulation::from_chains(s.platform, s.chains, cfg, 5);
    const auto sched = vt::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    EXPECT_TRUE(metrics.completed);
}

TEST(EngineStochastic, ReplicaWinsAreCounted) {
    // With heavy volatility and replication enabled, at least some runs see
    // replica wins; aggregate across seeds for a robust check.
    long long wins = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const auto s = recipe_setup(10, 5, 3, 50 + seed);
        const auto sim = vs::Simulation::from_chains(s.platform, s.chains,
                                                     audited(2, 4), seed);
        const auto sched = vt::make_scheduler("mct");
        wins += sim.run(*sched).replica_wins;
    }
    EXPECT_GT(wins, 0);
}

TEST(EngineStochastic, UninformedBeliefsStillComplete) {
    // Simulation constructed without belief chains: informed heuristics
    // degrade gracefully (EMCT -> MCT, LW/UD -> ties) but must still finish.
    const auto s = recipe_setup(6, 2, 1, 60);
    std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
    for (const auto& c : s.chains)
        models.push_back(std::make_unique<vm::MarkovAvailability>(c));
    const vs::Simulation sim(s.platform, std::move(models), {}, audited(2, 5),
                             3);
    for (const auto& name : {"emct", "lw", "ud", "random2"}) {
        const auto sched = vt::make_scheduler(name);
        EXPECT_TRUE(sim.run(*sched).completed) << name;
    }
}
