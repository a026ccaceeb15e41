/// Deterministic tests of the bounded multi-port bandwidth semantics:
/// suspended transfers release the channel, in-flight transfers resume in
/// FIFO order, and the two-state reduction preserves exact optima.

#include <gtest/gtest.h>

#include <memory>

#include "markov/gen.hpp"
#include "offline/exact.hpp"
#include "offline/instance.hpp"
#include "sim/engine.hpp"
#include "support/fixtures.hpp"
#include "trace/replay.hpp"
#include "util/rng.hpp"

namespace vs = volsched::sim;
namespace vm = volsched::markov;
namespace vt = volsched::trace;
namespace vo = volsched::offline;

namespace {

vs::Simulation make_replay_sim(vs::Platform pf,
                               const std::vector<std::string>& rows,
                               vs::EngineConfig cfg) {
    std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
    for (const auto& row : rows) {
        vt::RecordedTrace tr;
        for (char c : row) tr.states.push_back(vm::state_from_code(c));
        models.push_back(std::make_unique<vt::ReplayAvailability>(
            tr, vt::ReplayAvailability::EndPolicy::HoldLast));
    }
    return vs::Simulation(std::move(pf), std::move(models), {}, cfg, 1);
}

vs::EngineConfig config(int iterations, int tasks) {
    vs::EngineConfig cfg;
    cfg.iterations = iterations;
    cfg.tasks_per_iteration = tasks;
    cfg.replica_cap = 0;
    cfg.max_slots = 100000;
    cfg.audit = true;
    return cfg;
}

} // namespace

TEST(Bandwidth, SuspendedTransferReleasesTheChannel) {
    // p=2, ncom=1, w=1, Tprog=1, Tdata=2, m=2.  P0 enrols first (prog slot
    // 0, data slot 1) then is RECLAIMED from slot 2: its half-finished data
    // transfer suspends, freeing the channel for P1's full pipeline (prog
    // slot 2, data slots 3-4, compute slot 5 -> task1 done end slot 5).
    // P0 resumes at slot 9: data slot 9, compute slot 10 -> makespan 11.
    vs::Platform pf = vs::Platform::homogeneous(2, 1, 1, 1, 2);
    auto sim = make_replay_sim(
        pf, {"uurrrrrrruuuuu", std::string(14, 'u')}, config(1, 2));
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    ASSERT_TRUE(metrics.completed);
    EXPECT_EQ(metrics.makespan, 11);
}

TEST(Bandwidth, ResumedTransfersAdvanceInFifoOrder) {
    // p=2, ncom=1, w=1, Tprog=3, Tdata=1, m=2.
    // P0: prog slot 0 (started first), RECLAIMED slots 1-2, UP after.
    // P1: enrols slot 1 while P0 is suspended.
    // From slot 3 both transfers are live; P0's (older) wins the channel:
    // P0 prog 3-4, P1 prog resumes 5; data P0 6, data P1 7; computes 7 and
    // 8 -> makespan 9.
    vs::Platform pf = vs::Platform::homogeneous(2, 1, 1, 3, 1);
    auto sim = make_replay_sim(pf, {"urruuuuuuu", std::string(10, 'u')},
                               config(1, 2));
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    ASSERT_TRUE(metrics.completed);
    EXPECT_EQ(metrics.makespan, 9);
}

TEST(Bandwidth, NcomLimitsScaleEnrolmentLatency) {
    // p=4, identical workers, m=4: doubling ncom halves the enrolment wave.
    auto run_with = [](int ncom) {
        vs::Platform pf = vs::Platform::homogeneous(4, 2, ncom, 2, 1);
        auto sim = make_replay_sim(
            pf, {"u", "u", "u", "u"},
            config(1, 4));
        const auto sched = volsched::test::make_scheduler("mct");
        const auto metrics = sim.run(*sched);
        EXPECT_TRUE(metrics.completed);
        return metrics.makespan;
    };
    const auto serial = run_with(1);
    const auto dual = run_with(2);
    const auto full = run_with(4);
    EXPECT_GT(serial, dual);
    EXPECT_GE(dual, full);
    // Full parallel enrolment: prog 0-1, data 2, compute 3-4 -> 5 slots.
    EXPECT_EQ(full, 5);
}

TEST(Bandwidth, TransfersNeverExceedNcomTimesMakespan) {
    volsched::util::Rng rng(123);
    for (int trial = 0; trial < 5; ++trial) {
        const auto chains = vm::generate_chains(10, rng);
        vs::Platform pf;
        pf.ncom = 1 + trial;
        pf.t_prog = 4;
        pf.t_data = 2;
        for (int q = 0; q < 10; ++q)
            pf.w.push_back(1 + static_cast<int>(rng.uniform_int(0, 9)));
        auto cfg = config(2, 6);
        cfg.replica_cap = 2;
        const auto sim = vs::Simulation::from_chains(pf, chains, cfg,
                                                     900 + trial);
        const auto sched = volsched::test::make_scheduler("emct*");
        const auto metrics = sim.run(*sched);
        ASSERT_TRUE(metrics.completed);
        EXPECT_LE(metrics.transfer_slots,
                  static_cast<long long>(pf.ncom) * metrics.makespan);
    }
}

// Section 4's DOWN-elimination preserves the exact optimum on instances
// small enough for the solver (the reduction's whole point).
class ReductionPreservesOptimum : public ::testing::TestWithParam<int> {};

TEST_P(ReductionPreservesOptimum, ExactOptimaMatch) {
    volsched::util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
    vo::OfflineInstance inst;
    inst.num_tasks = 2;
    inst.horizon = 12;
    inst.platform.ncom = 2;
    inst.platform.t_prog = 1;
    inst.platform.t_data = 1;
    for (int q = 0; q < 2; ++q) {
        inst.platform.w.push_back(1);
        std::vector<vm::ProcState> row;
        for (int t = 0; t < inst.horizon; ++t) {
            const double roll = rng.uniform();
            row.push_back(roll < 0.6   ? vm::ProcState::Up
                          : roll < 0.8 ? vm::ProcState::Reclaimed
                                       : vm::ProcState::Down);
        }
        inst.states.push_back(std::move(row));
    }
    const auto reduced = vo::two_state_reduction(inst);
    // The reduced instance may have more processors; ncom must cover the
    // same relative bound (unbounded here: ncom = p in both).
    vo::OfflineInstance reduced_unbounded = reduced;
    reduced_unbounded.platform.ncom = reduced.num_procs();
    vo::OfflineInstance original_unbounded = inst;
    original_unbounded.platform.ncom = inst.num_procs();

    const auto a = vo::solve_exact(original_unbounded, 30'000'000);
    const auto b = vo::solve_exact(reduced_unbounded, 30'000'000);
    ASSERT_TRUE(a.proven);
    ASSERT_TRUE(b.proven);
    EXPECT_EQ(a.feasible, b.feasible) << "seed " << GetParam();
    if (a.feasible) {
        EXPECT_EQ(a.makespan, b.makespan) << "seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionPreservesOptimum,
                         ::testing::Range(0, 8));
