/// Tests for the structured event log and the per-slot timeline recorder,
/// plus the proactive scheduler class.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "markov/gen.hpp"
#include "sim/engine.hpp"
#include "sim/timeline.hpp"
#include "support/fixtures.hpp"
#include "trace/replay.hpp"
#include "util/rng.hpp"

namespace vs = volsched::sim;
namespace vm = volsched::markov;
namespace vt = volsched::trace;

namespace {

vs::Simulation make_replay_sim(vs::Platform pf,
                               const std::vector<std::string>& rows,
                               vs::EngineConfig cfg,
                               std::vector<vm::MarkovChain> beliefs = {}) {
    std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
    for (const auto& row : rows) {
        vt::RecordedTrace tr;
        for (char c : row) tr.states.push_back(vm::state_from_code(c));
        models.push_back(std::make_unique<vt::ReplayAvailability>(
            tr, vt::ReplayAvailability::EndPolicy::HoldLast));
    }
    return vs::Simulation(std::move(pf), std::move(models),
                          std::move(beliefs), cfg, 1);
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

TEST(EventLogging, PipelineEmitsExpectedEventCounts) {
    // p=1, w=3, Tprog=2, Tdata=2, m=2, always UP (cf. EngineTiming).
    vs::EventLog log;
    auto cfg = config(1, 2);
    cfg.observers = {&log};
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 3, 1, 2, 2), {"u"},
                               cfg);
    const auto sched = volsched::test::make_scheduler("mct");
    ASSERT_TRUE(sim.run(*sched).completed);

    EXPECT_EQ(log.count(vs::EventKind::StateChange), 1u); // slot-0 UP
    EXPECT_EQ(log.count(vs::EventKind::ProgStart), 1u);
    EXPECT_EQ(log.count(vs::EventKind::ProgComplete), 1u);
    EXPECT_EQ(log.count(vs::EventKind::DataStart), 2u);
    EXPECT_EQ(log.count(vs::EventKind::DataComplete), 2u);
    EXPECT_EQ(log.count(vs::EventKind::ComputeStart), 2u);
    EXPECT_EQ(log.count(vs::EventKind::TaskComplete), 2u);
    EXPECT_EQ(log.count(vs::EventKind::IterationComplete), 1u);
    EXPECT_EQ(log.count(vs::EventKind::WorkLost), 0u);
}

TEST(EventLogging, EventsAreChronological) {
    vs::EventLog log;
    auto cfg = config(2, 3);
    cfg.observers = {&log};
    auto sim = make_replay_sim(vs::Platform::homogeneous(2, 2, 2, 1, 1),
                               {"u", "u"}, cfg);
    const auto sched = volsched::test::make_scheduler("mct");
    ASSERT_TRUE(sim.run(*sched).completed);
    long long prev = -1;
    for (const auto& e : log.events()) {
        EXPECT_GE(e.slot, prev);
        prev = e.slot;
    }
}

TEST(EventLogging, EachRunRestartsTheLog) {
    // A Simulation may run several times; one log attached to all of them
    // holds the latest run only, exactly as a fresh log over one run would.
    const auto pf = vs::Platform::homogeneous(2, 2, 2, 1, 1);
    const std::vector<std::string> rows = {"uurduu", "uduuuu"};
    auto cfg = config(2, 3);
    vs::EventLog fresh;
    cfg.observers = {&fresh};
    const auto sched = volsched::test::make_scheduler("mct");
    ASSERT_TRUE(make_replay_sim(pf, rows, cfg).run(*sched).completed);

    vs::EventLog reused;
    cfg.observers = {&reused};
    const auto sim = make_replay_sim(pf, rows, cfg);
    ASSERT_TRUE(sim.run(*sched).completed);
    ASSERT_TRUE(sim.run(*sched).completed);
    std::ostringstream want, got;
    fresh.write_csv(want);
    reused.write_csv(got);
    EXPECT_EQ(reused.size(), fresh.size());
    EXPECT_EQ(got.str(), want.str());
}

TEST(EventLogging, CrashEmitsWorkLost) {
    vs::EventLog log;
    auto cfg = config(1, 1);
    cfg.observers = {&log};
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 1, 1, 2, 1),
                               {"uuduuuuuu"}, cfg);
    const auto sched = volsched::test::make_scheduler("mct");
    ASSERT_TRUE(sim.run(*sched).completed);
    EXPECT_EQ(log.count(vs::EventKind::WorkLost), 1u);
    // The DOWN state change is recorded too.
    std::size_t downs = 0;
    for (const auto& e : log.events())
        if (e.kind == vs::EventKind::StateChange &&
            e.state == vm::ProcState::Down)
            ++downs;
    EXPECT_EQ(downs, 1u);
}

TEST(EventLogging, TaskCompletionsMatchMetrics) {
    vs::EventLog log;
    volsched::util::Rng rng(9);
    const auto chains = vm::generate_chains(8, rng);
    vs::Platform pf;
    pf.ncom = 3;
    pf.t_prog = 5;
    pf.t_data = 1;
    for (int q = 0; q < 8; ++q)
        pf.w.push_back(1 + static_cast<int>(rng.uniform_int(0, 9)));
    auto cfg = config(3, 6);
    cfg.replica_cap = 2;
    cfg.observers = {&log};
    const auto sim = vs::Simulation::from_chains(pf, chains, cfg, 77);
    const auto sched = volsched::test::make_scheduler("emct*");
    const auto metrics = sim.run(*sched);
    ASSERT_TRUE(metrics.completed);
    EXPECT_EQ(log.count(vs::EventKind::TaskComplete),
              static_cast<std::size_t>(metrics.tasks_completed));
    EXPECT_EQ(log.count(vs::EventKind::ReplicaCommitted),
              static_cast<std::size_t>(metrics.replicas_committed));
    EXPECT_EQ(log.count(vs::EventKind::IterationComplete), 3u);
}

TEST(EventLogging, CsvHasHeaderAndOneRowPerEvent) {
    vs::EventLog log;
    auto cfg = config(1, 1);
    cfg.observers = {&log};
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 1, 1, 1, 1), {"u"},
                               cfg);
    const auto sched = volsched::test::make_scheduler("mct");
    ASSERT_TRUE(sim.run(*sched).completed);
    std::ostringstream os;
    log.write_csv(os);
    std::size_t lines = 0;
    std::string line;
    std::istringstream is(os.str());
    while (std::getline(is, line)) ++lines;
    EXPECT_EQ(lines, log.size() + 1);
    EXPECT_EQ(os.str().rfind("slot,kind,proc", 0), 0u);
}

TEST(EventKindNames, AllDistinct) {
    const vs::EventKind kinds[] = {
        vs::EventKind::StateChange,   vs::EventKind::ProgStart,
        vs::EventKind::ProgComplete,  vs::EventKind::DataStart,
        vs::EventKind::DataComplete,  vs::EventKind::ComputeStart,
        vs::EventKind::TaskComplete,  vs::EventKind::WorkLost,
        vs::EventKind::ReplicaCommitted, vs::EventKind::ReplicaCancelled,
        vs::EventKind::ProactiveCancel, vs::EventKind::IterationComplete,
        vs::EventKind::CheckpointStart, vs::EventKind::CheckpointCommit,
        vs::EventKind::CheckpointLost,  vs::EventKind::Recovery};
    for (std::size_t i = 0; i < std::size(kinds); ++i)
        for (std::size_t j = i + 1; j < std::size(kinds); ++j)
            EXPECT_STRNE(vs::event_kind_name(kinds[i]),
                         vs::event_kind_name(kinds[j]));
}

TEST(TimelineRecording, DeterministicPipelineChart) {
    vs::Timeline timeline;
    auto cfg = config(1, 2);
    cfg.observers = {&timeline};
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 3, 1, 2, 2), {"u"},
                               cfg);
    const auto sched = volsched::test::make_scheduler("mct");
    ASSERT_TRUE(sim.run(*sched).completed);
    ASSERT_EQ(timeline.procs(), 1);
    ASSERT_EQ(timeline.slots(), 10);
    std::string row;
    for (long long t = 0; t < 10; ++t) row.push_back(timeline.at(0, t));
    // prog 0-1, data0 2-3, compute+data1 4-5, compute 6, compute task1 7-9.
    EXPECT_EQ(row, "PPDDBBCCCC");
}

TEST(TimelineRecording, StateCodesAppear) {
    vs::Timeline timeline;
    auto cfg = config(1, 1);
    cfg.observers = {&timeline};
    auto sim = make_replay_sim(vs::Platform::homogeneous(1, 1, 1, 1, 1),
                               {"urduu"}, cfg);
    const auto sched = volsched::test::make_scheduler("mct");
    ASSERT_TRUE(sim.run(*sched).completed);
    EXPECT_EQ(timeline.at(0, 1), 'r');
    EXPECT_EQ(timeline.at(0, 2), 'd');
}

TEST(TimelineRecording, RenderHasRulerAndRows) {
    vs::Timeline timeline;
    auto cfg = config(1, 2);
    cfg.observers = {&timeline};
    auto sim = make_replay_sim(vs::Platform::homogeneous(2, 2, 2, 1, 1),
                               {"u", "u"}, cfg);
    const auto sched = volsched::test::make_scheduler("mct");
    ASSERT_TRUE(sim.run(*sched).completed);
    const auto text = timeline.render();
    EXPECT_NE(text.find("P0"), std::string::npos);
    EXPECT_NE(text.find("P1"), std::string::npos);
    EXPECT_NE(text.find('|'), std::string::npos);
    // Out-of-range windows clamp to empty rows; out-of-range lookups are
    // null characters.
    const auto clamped = timeline.render(100, 200);
    EXPECT_NE(clamped.find("P0"), std::string::npos);
    EXPECT_EQ(timeline.at(0, 9999), '\0');
    EXPECT_EQ(timeline.at(57, 0), '\0');
}

TEST(Proactive, RescuesTaskFromLongReclaimedWorker) {
    // P0 stages the task then disappears into RECLAIMED for 20 slots; P1
    // sits idle UP.  Dynamic waits for P0; Proactive re-enrols on P1.
    vs::Platform pf = vs::Platform::homogeneous(2, 2, 1, 1, 2);
    const std::string p0 = "uu" + std::string(20, 'r') + "uuuuuuuuuu";
    const std::vector<std::string> rows = {p0, std::string(40, 'u')};
    // Beliefs: P0 has sticky RECLAIMED (P_rr = 0.9); P1 is rock solid.
    std::vector<vm::MarkovChain> beliefs;
    beliefs.emplace_back(vm::TransitionMatrix({{{0.70, 0.25, 0.05},
                                                {0.05, 0.90, 0.05},
                                                {0.50, 0.25, 0.25}}}));
    beliefs.emplace_back(vm::TransitionMatrix({{{0.99, 0.005, 0.005},
                                                {0.50, 0.25, 0.25},
                                                {0.50, 0.25, 0.25}}}));

    auto dynamic_cfg = config(1, 1);
    auto proactive_cfg = config(1, 1);
    proactive_cfg.plan_class = vs::SchedulerClass::Proactive;

    auto dyn_sim = make_replay_sim(pf, rows, dynamic_cfg, beliefs);
    auto pro_sim = make_replay_sim(pf, rows, proactive_cfg, beliefs);
    const auto sched1 = volsched::test::make_scheduler("mct");
    const auto sched2 = volsched::test::make_scheduler("mct");

    const auto dyn = dyn_sim.run(*sched1);
    const auto pro = pro_sim.run(*sched2);
    ASSERT_TRUE(dyn.completed);
    ASSERT_TRUE(pro.completed);
    EXPECT_EQ(dyn.proactive_cancellations, 0);
    EXPECT_GE(pro.proactive_cancellations, 1);
    EXPECT_LT(pro.makespan, dyn.makespan);
}

TEST(Proactive, NoBeliefsMeansNoCancellations) {
    vs::Platform pf = vs::Platform::homogeneous(2, 2, 1, 1, 2);
    auto cfg = config(1, 1);
    cfg.plan_class = vs::SchedulerClass::Proactive;
    auto sim = make_replay_sim(pf, {"uurrrrruuu", "uuuuuuuuuu"}, cfg);
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    ASSERT_TRUE(metrics.completed);
    EXPECT_EQ(metrics.proactive_cancellations, 0);
}

TEST(Proactive, AuditsCleanlyOnStochasticPlatforms) {
    volsched::util::Rng rng(5);
    const auto chains = vm::generate_chains(10, rng);
    vs::Platform pf;
    pf.ncom = 4;
    pf.t_prog = 10;
    pf.t_data = 2;
    for (int q = 0; q < 10; ++q)
        pf.w.push_back(2 + static_cast<int>(rng.uniform_int(0, 18)));
    auto cfg = config(3, 8);
    cfg.replica_cap = 2;
    cfg.plan_class = vs::SchedulerClass::Proactive;
    const auto sim = vs::Simulation::from_chains(pf, chains, cfg, 123);
    for (const auto& name : {"emct*", "mct", "random2w"}) {
        const auto sched = volsched::test::make_scheduler(name);
        const auto metrics = sim.run(*sched);
        EXPECT_TRUE(metrics.completed) << name;
    }
}
