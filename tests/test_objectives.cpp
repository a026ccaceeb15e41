/// Tests of the Section 3.4 objective duality: maximizing iterations within
/// a deadline vs. minimizing slots for a fixed number of iterations.

#include <gtest/gtest.h>

#include <memory>

#include "markov/gen.hpp"
#include "sim/engine.hpp"
#include "support/fixtures.hpp"
#include "trace/replay.hpp"
#include "util/rng.hpp"

namespace vs = volsched::sim;
namespace vm = volsched::markov;
namespace vt = volsched::trace;

namespace {

vs::Simulation always_up_sim() {
    // p=1, w=3, Tprog=2, Tdata=2: iteration 1 ends at slot 10, each further
    // iteration adds Tdata + 2w = 8 slots (see EngineTiming).
    std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
    vt::RecordedTrace tr;
    tr.states = {vm::ProcState::Up};
    models.push_back(std::make_unique<vt::ReplayAvailability>(
        tr, vt::ReplayAvailability::EndPolicy::HoldLast));
    vs::EngineConfig cfg;
    cfg.iterations = 1;
    cfg.tasks_per_iteration = 2;
    cfg.replica_cap = 0;
    cfg.max_slots = 100000;
    return vs::Simulation(vs::Platform::homogeneous(1, 3, 1, 2, 2),
                          std::move(models), {}, cfg, 1);
}

long long predicted_min_slots(int iterations) {
    return 10 + 8LL * (iterations - 1);
}

} // namespace

TEST(Objectives, MinSlotsMatchesHandDerivedSchedule) {
    auto sim = always_up_sim();
    const auto sched = volsched::test::make_scheduler("mct");
    for (int k = 1; k <= 5; ++k)
        EXPECT_EQ(sim.min_slots_for_iterations(*sched, k),
                  predicted_min_slots(k))
            << "k=" << k;
}

TEST(Objectives, MinSlotsReportsHorizonFailure) {
    auto sim = always_up_sim();
    const auto sched = volsched::test::make_scheduler("mct");
    // Horizon (config.max_slots = 100000) cannot fit 20000 iterations.
    EXPECT_EQ(sim.min_slots_for_iterations(*sched, 20000), -1);
}

TEST(Objectives, DeadlineRunCountsIterations) {
    auto sim = always_up_sim();
    const auto sched = volsched::test::make_scheduler("mct");
    const auto at_deadline = [&](long long d) {
        return sim.run_for_deadline(*sched, d).iterations_completed;
    };
    EXPECT_EQ(at_deadline(9), 0);
    EXPECT_EQ(at_deadline(10), 1);
    EXPECT_EQ(at_deadline(17), 1);
    EXPECT_EQ(at_deadline(18), 2);
    EXPECT_EQ(at_deadline(100), 1 + (100 - 10) / 8);
}

// The duality property itself, parameterized over deadlines:
// iterations(deadline) >= k  <=>  min_slots(k) <= deadline.
class DualityProperty : public ::testing::TestWithParam<long long> {};

TEST_P(DualityProperty, DeterministicPlatform) {
    const long long deadline = GetParam();
    auto sim = always_up_sim();
    const auto sched = volsched::test::make_scheduler("mct");
    const int achieved =
        sim.run_for_deadline(*sched, deadline).iterations_completed;
    if (achieved > 0) {
        EXPECT_LE(sim.min_slots_for_iterations(*sched, achieved), deadline);
    }
    const long long next =
        sim.min_slots_for_iterations(*sched, achieved + 1);
    EXPECT_TRUE(next == -1 || next > deadline);
}

INSTANTIATE_TEST_SUITE_P(Deadlines, DualityProperty,
                         ::testing::Values(1, 9, 10, 18, 26, 50, 101));

TEST(Objectives, DualityOnStochasticPlatform) {
    volsched::util::Rng rng(17);
    const auto chains = vm::generate_chains(8, rng);
    vs::Platform pf;
    pf.ncom = 3;
    pf.t_prog = 5;
    pf.t_data = 1;
    for (int q = 0; q < 8; ++q)
        pf.w.push_back(1 + static_cast<int>(rng.uniform_int(0, 9)));
    vs::EngineConfig cfg;
    cfg.iterations = 1;
    cfg.tasks_per_iteration = 5;
    cfg.max_slots = 500000;
    const auto sim = vs::Simulation::from_chains(pf, chains, cfg, 321);
    const auto sched = volsched::test::make_scheduler("emct");
    // The availability realization is seed-determined, so both objective
    // directions see the same world and the duality must hold exactly.
    for (long long deadline : {50LL, 150LL, 400LL, 1000LL}) {
        const int achieved =
            sim.run_for_deadline(*sched, deadline).iterations_completed;
        if (achieved > 0) {
            const long long needed =
                sim.min_slots_for_iterations(*sched, achieved);
            ASSERT_NE(needed, -1);
            EXPECT_LE(needed, deadline) << "deadline " << deadline;
        }
        const long long next =
            sim.min_slots_for_iterations(*sched, achieved + 1);
        EXPECT_TRUE(next == -1 || next > deadline) << "deadline " << deadline;
    }
}

TEST(Objectives, DeadlineRunNeverClaimsCompletion) {
    auto sim = always_up_sim();
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run_for_deadline(*sched, 100);
    EXPECT_FALSE(metrics.completed); // iteration budget is unbounded
    EXPECT_EQ(metrics.makespan, 100);
}
