/// Deterministic engine-timing tests: every makespan below is hand-derived
/// from the per-slot semantics in DESIGN.md §4 (program, then per-task data
/// with one-task look-ahead, compute overlap, end-of-slot promotions).

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "support/fixtures.hpp"
#include "trace/replay.hpp"

namespace vs = volsched::sim;
namespace vm = volsched::markov;
namespace vt = volsched::trace;

namespace {

/// Builds a simulation whose availability replays the given rows (one
/// string of u/r/d per processor; HoldLast keeps the final state forever).
vs::Simulation make_replay_sim(vs::Platform pf,
                               const std::vector<std::string>& rows,
                               vs::EngineConfig cfg,
                               std::uint64_t seed = 1) {
    std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
    for (const auto& row : rows) {
        vt::RecordedTrace tr;
        for (char c : row) tr.states.push_back(vm::state_from_code(c));
        models.push_back(std::make_unique<vt::ReplayAvailability>(
            tr, vt::ReplayAvailability::EndPolicy::HoldLast));
    }
    return vs::Simulation(std::move(pf), std::move(models), {}, cfg, seed);
}

vs::EngineConfig config(int iterations, int tasks, int replica_cap = 0) {
    vs::EngineConfig cfg;
    cfg.iterations = iterations;
    cfg.tasks_per_iteration = tasks;
    cfg.replica_cap = replica_cap;
    cfg.max_slots = 100000;
    cfg.audit = true;
    return cfg;
}

long long run_makespan(const vs::Simulation& sim, const std::string& name) {
    const auto sched = volsched::test::make_scheduler(name);
    const auto metrics = sim.run(*sched);
    EXPECT_TRUE(metrics.completed);
    return metrics.makespan;
}

} // namespace

TEST(EngineTiming, SingleProcComputeBoundPipeline) {
    // p=1, w=3, Tprog=2, Tdata=2, m=2: prog slots 0-1, data0 2-3,
    // compute0 4-6 (data1 overlaps 4-5), compute1 7-9 -> makespan 10.
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 3, 1, 2, 2), {"u"},
                               config(1, 2));
    EXPECT_EQ(run_makespan(sim, "mct"), 10);
}

TEST(EngineTiming, SingleProcDataBoundPipeline) {
    // p=1, w=1, Tprog=1, Tdata=3, m=3: makespan = Tprog + m*Tdata + w = 11.
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 1, 1, 1, 3), {"u"},
                               config(1, 3));
    EXPECT_EQ(run_makespan(sim, "mct"), 11);
}

TEST(EngineTiming, SecondIterationSkipsProgram) {
    // Same platform as the compute-bound case; each further iteration costs
    // Tdata + m*w = 2 + 6 = 8 slots (program already resident).
    auto pf = vs::Platform::homogeneous(1, 3, 1, 2, 2);
    auto sim1 = make_replay_sim(pf, {"u"}, config(1, 2));
    auto sim2 = make_replay_sim(pf, {"u"}, config(2, 2));
    auto sim3 = make_replay_sim(pf, {"u"}, config(3, 2));
    EXPECT_EQ(run_makespan(sim1, "mct"), 10);
    EXPECT_EQ(run_makespan(sim2, "mct"), 18);
    EXPECT_EQ(run_makespan(sim3, "mct"), 26);
}

TEST(EngineTiming, IterationEndsAreRecorded) {
    // Same timing as SecondIterationSkipsProgram: boundaries at 10, 18, 26.
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 3, 1, 2, 2), {"u"},
                               config(3, 2));
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    ASSERT_TRUE(metrics.completed);
    ASSERT_EQ(metrics.iteration_ends.size(), 3u);
    EXPECT_EQ(metrics.iteration_ends[0], 10);
    EXPECT_EQ(metrics.iteration_ends[1], 18);
    EXPECT_EQ(metrics.iteration_ends[2], 26);
    EXPECT_EQ(metrics.iteration_ends.back(), metrics.makespan);
}

TEST(EngineTiming, FirstIterationCarriesProgramCost) {
    // Iteration durations: the first pays Tprog, later ones are identical.
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 3, 1, 2, 2), {"u"},
                               config(4, 2));
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    ASSERT_TRUE(metrics.completed);
    ASSERT_EQ(metrics.iteration_ends.size(), 4u);
    const long long first = metrics.iteration_ends[0];
    for (std::size_t k = 1; k < 4; ++k) {
        const long long duration =
            metrics.iteration_ends[k] - metrics.iteration_ends[k - 1];
        EXPECT_EQ(duration, 8);
        EXPECT_LT(duration, first);
    }
}

TEST(EngineTiming, TwoProcsParallelWhenBandwidthAllows) {
    // p=2, w=2, Tprog=1, Tdata=1, ncom=2, m=2: both procs receive the
    // program in slot 0, data in slot 1, compute slots 2-3 -> makespan 4.
    auto sim = make_replay_sim(vs::Platform::homogeneous(2, 2, 2, 1, 1),
                               {"u", "u"}, config(1, 2));
    EXPECT_EQ(run_makespan(sim, "mct"), 4);
}

TEST(EngineTiming, NcomOneSerializesEnrolment) {
    // Same but ncom=1: P1's program waits for the channel -> makespan 6.
    auto sim = make_replay_sim(vs::Platform::homogeneous(2, 2, 1, 1, 1),
                               {"u", "u"}, config(1, 2));
    EXPECT_EQ(run_makespan(sim, "mct"), 6);
}

TEST(EngineTiming, ReclaimedSuspendsTransferAndCompute) {
    // p=1, w=1, Tprog=1, Tdata=1, m=1.
    // All-up: prog 0, data 1, compute 2 -> makespan 3.
    // "ur" at slots 1: data transfer pushed to slot 2 -> makespan 4.
    auto pf = vs::Platform::homogeneous(1, 1, 1, 1, 1);
    auto fast = make_replay_sim(pf, {"u"}, config(1, 1));
    EXPECT_EQ(run_makespan(fast, "mct"), 3);
    auto slow = make_replay_sim(pf, {"uruu"}, config(1, 1));
    EXPECT_EQ(run_makespan(slow, "mct"), 4);
}

TEST(EngineTiming, ReclaimedDuringComputeStallsIt) {
    // p=1, w=2, Tprog=1, Tdata=1, m=1, trace u u u r r u ...:
    // prog 0, data 1, compute starts 2, stalls 3-4, finishes 5 -> 6.
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 2, 1, 1, 1),
                               {"uuurruu"}, config(1, 1));
    EXPECT_EQ(run_makespan(sim, "mct"), 6);
}

TEST(EngineTiming, DownLosesProgramAndStagedData) {
    // p=1, w=1, Tprog=2, Tdata=1, m=1, trace u u d u...:
    // prog 0-1 completes, DOWN at slot 2 wipes it and returns the task to
    // the pool; re-enrol: prog 3-4, data 5, compute 6 -> makespan 7.
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 1, 1, 2, 1),
                               {"uuduuuuuu"}, config(1, 1));
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    EXPECT_TRUE(metrics.completed);
    EXPECT_EQ(metrics.makespan, 7);
    EXPECT_EQ(metrics.down_events, 1);
    EXPECT_EQ(metrics.tasks_completed, 1);
    // The two lost program slots count as wasted transfer.
    EXPECT_EQ(metrics.wasted_transfer_slots, 2);
}

TEST(EngineTiming, DownDuringComputeRestartsTaskFromScratch) {
    // p=1, w=2, Tprog=1, Tdata=1, m=1, trace u u u d u...:
    // prog 0, data 1, compute 2 (1 of 2), DOWN 3; re-enrol: prog 4, data 5,
    // compute 6-7 -> makespan 8; one compute slot wasted.
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 2, 1, 1, 1),
                               {"uuuduuuuuu"}, config(1, 1));
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    EXPECT_TRUE(metrics.completed);
    EXPECT_EQ(metrics.makespan, 8);
    EXPECT_EQ(metrics.wasted_compute_slots, 1);
}

TEST(EngineTiming, ReplicaOnFastLateProcessorWins) {
    // P0 slow (w=10) and UP from slot 0; P1 fast (w=1) but UP only from
    // slot 1.  m=1, Tprog=Tdata=1, cap=1.  The original lands on P0 (prog
    // slot 0, data slot 1, compute from slot 2).  P1 becomes UP at slot 1,
    // but the channel is busy, so its replica enrols at slot 2 (prog),
    // data slot 3, compute slot 4 -> replica completes first, makespan 5.
    vs::Platform pf;
    pf.w = {10, 1};
    pf.ncom = 1;
    pf.t_prog = 1;
    pf.t_data = 1;
    auto sim = make_replay_sim(pf, {"u", "ru"}, config(1, 1, /*cap=*/1));
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    EXPECT_TRUE(metrics.completed);
    EXPECT_EQ(metrics.makespan, 5);
    EXPECT_EQ(metrics.replicas_committed, 1);
    EXPECT_EQ(metrics.replica_wins, 1);
    EXPECT_GT(metrics.wasted_compute_slots, 0); // original aborted on P0
}

TEST(EngineTiming, ReplicationDisabledUsesOriginalOnly) {
    vs::Platform pf;
    pf.w = {10, 1};
    pf.ncom = 1;
    pf.t_prog = 1;
    pf.t_data = 1;
    auto sim = make_replay_sim(pf, {"u", "ru"}, config(1, 1, /*cap=*/0));
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    EXPECT_TRUE(metrics.completed);
    EXPECT_EQ(metrics.makespan, 12); // prog 0, data 1, compute 2-11
    EXPECT_EQ(metrics.replicas_committed, 0);
    EXPECT_EQ(metrics.replica_wins, 0);
}

TEST(EngineTiming, ReplicaCapBoundsCopies) {
    // m=1, p=5, all UP: at most 1 + cap live copies regardless of the
    // number of idle processors.
    for (int cap : {0, 1, 2}) {
        auto sim = make_replay_sim(
            vs::Platform::homogeneous(5, 50, 5, 1, 1),
            {"u", "u", "u", "u", "u"}, config(1, 1, cap));
        const auto sched = volsched::test::make_scheduler("mct");
        const auto metrics = sim.run(*sched);
        EXPECT_TRUE(metrics.completed);
        EXPECT_EQ(metrics.replicas_committed, cap);
    }
}

TEST(EngineTiming, HorizonCapReportsIncomplete) {
    vs::EngineConfig cfg = config(1, 1);
    cfg.max_slots = 50;
    cfg.audit = false;
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 1, 1, 1, 1), {"d"},
                               cfg);
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    EXPECT_FALSE(metrics.completed);
    EXPECT_EQ(metrics.makespan, 50);
    EXPECT_EQ(metrics.iterations_completed, 0);
}

TEST(EngineTiming, StickyPlanMatchesDynamicOnQuietPlatform) {
    // With no state changes there is nothing for dynamic re-planning to
    // exploit: both policies must produce the same makespan.
    auto pf = vs::Platform::homogeneous(3, 2, 2, 1, 1);
    vs::EngineConfig dynamic = config(2, 5);
    vs::EngineConfig sticky = config(2, 5);
    sticky.plan_class = vs::SchedulerClass::Passive;
    auto sim_d = make_replay_sim(pf, {"u", "u", "u"}, dynamic);
    auto sim_s = make_replay_sim(pf, {"u", "u", "u"}, sticky);
    EXPECT_EQ(run_makespan(sim_d, "mct"), run_makespan(sim_s, "mct"));
}

TEST(EngineTiming, PassiveWaitsForPlannedProcessorDynamicSwitches) {
    // p=2, m=2, ncom=1, Tprog=Tdata=1, w=5.  At slot 0 MCT plans task1 on
    // P1 (empty pipeline beats queueing on P0), but the channel is busy, so
    // the plan cannot commit.  P1 then disappears into RECLAIMED until
    // slot 10.
    //  - dynamic: re-plans at slot 2, runs both tasks on P0 -> makespan 12.
    //  - passive: the plan sticks to P1; enrolment waits for its return ->
    //    prog 10, data 11, compute 12-16 -> makespan 17.
    vs::Platform pf = vs::Platform::homogeneous(2, 5, 1, 1, 1);
    const std::vector<std::string> rows = {"u", "urrrrrrrrruuuuuuuuuu"};
    vs::EngineConfig dynamic_cfg = config(1, 2);
    vs::EngineConfig passive_cfg = config(1, 2);
    passive_cfg.plan_class = vs::SchedulerClass::Passive;
    auto dyn = make_replay_sim(pf, rows, dynamic_cfg);
    auto pas = make_replay_sim(pf, rows, passive_cfg);
    EXPECT_EQ(run_makespan(dyn, "mct"), 12);
    EXPECT_EQ(run_makespan(pas, "mct"), 17);
}

TEST(EngineConfigChecks, RejectsInvalidConstruction) {
    auto pf = vs::Platform::homogeneous(2, 1, 1, 1, 1);
    std::vector<std::unique_ptr<vm::AvailabilityModel>> one_model;
    {
        vt::RecordedTrace tr;
        tr.states = {vm::ProcState::Up};
        one_model.push_back(std::make_unique<vt::ReplayAvailability>(tr));
    }
    vs::EngineConfig cfg = config(1, 1);
    // Model count mismatch.
    EXPECT_THROW(vs::Simulation(pf, std::move(one_model), {}, cfg, 1),
                 std::invalid_argument);
    // Bad platform.
    vs::Platform bad;
    bad.ncom = 1;
    EXPECT_THROW(vs::Simulation(bad, {}, {}, cfg, 1), std::invalid_argument);
    // A null observer.
    std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
    for (int q = 0; q < pf.size(); ++q)
        models.push_back(std::make_unique<vt::ReplayAvailability>(
            vt::RecordedTrace{{vm::ProcState::Up}}));
    cfg.observers = {nullptr};
    EXPECT_THROW(vs::Simulation(pf, std::move(models), {}, cfg, 1),
                 std::invalid_argument);
}

TEST(EngineConfigChecks, RejectsBadIterationCounts) {
    auto pf = vs::Platform::homogeneous(1, 1, 1, 1, 1);
    std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
    vt::RecordedTrace tr;
    tr.states = {vm::ProcState::Up};
    models.push_back(std::make_unique<vt::ReplayAvailability>(tr));
    vs::EngineConfig cfg = config(0, 1);
    EXPECT_THROW(vs::Simulation(pf, std::move(models), {}, cfg, 1),
                 std::invalid_argument);
}
