/// The strongest integration test in the suite: record an on-line engine
/// run (actions + per-slot states) and replay it through the *independent*
/// off-line model checker of Section 4.  Any divergence between the two
/// implementations of the execution model fails validation.
///
/// Replication is disabled (the validator requires each task to complete
/// exactly once) and runs are single-iteration (off-line instances model
/// one iteration).

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "markov/gen.hpp"
#include "offline/schedule.hpp"
#include "sim/action_trace.hpp"
#include "sim/engine.hpp"
#include "sim/timeline.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace vs = volsched::sim;
namespace vm = volsched::markov;
namespace vo = volsched::offline;

namespace {

/// Builds the offline instance + schedule from a recorded run.
struct Recorded {
    vo::OfflineInstance instance;
    vo::Schedule schedule;
};

Recorded to_offline(const vs::Platform& pf, const vs::Timeline& timeline,
                    const vs::ActionTrace& actions, int tasks,
                    long long makespan) {
    Recorded out;
    out.instance.platform = pf;
    out.instance.num_tasks = tasks;
    out.instance.horizon = static_cast<int>(makespan);
    out.instance.states.resize(static_cast<std::size_t>(pf.size()));
    out.schedule.actions.resize(static_cast<std::size_t>(pf.size()));
    for (int q = 0; q < pf.size(); ++q) {
        for (long long t = 0; t < makespan; ++t) {
            const char code = timeline.at(q, t);
            out.instance.states[q].push_back(
                code == 'd'   ? vm::ProcState::Down
                : code == 'r' ? vm::ProcState::Reclaimed
                              : vm::ProcState::Up);
            const auto& rec = actions.row(q)[static_cast<std::size_t>(t)];
            vo::SlotAction action;
            action.recv = rec.recv; // same -2/-1/task-id conventions
            action.compute = rec.compute;
            out.schedule.actions[q].push_back(action);
        }
    }
    return out;
}

} // namespace

class CrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(CrossValidation, EngineRunPassesOfflineValidator) {
    const auto seed = static_cast<std::uint64_t>(GetParam());
    volsched::util::Rng rng(seed + 7000);
    const int p = 3 + static_cast<int>(rng.uniform_int(0, 7));
    const int tasks = 2 + static_cast<int>(rng.uniform_int(0, 8));
    vs::Platform pf;
    pf.ncom = 1 + static_cast<int>(rng.uniform_int(0, 3));
    pf.t_prog = 1 + static_cast<int>(rng.uniform_int(0, 7));
    pf.t_data = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int q = 0; q < p; ++q)
        pf.w.push_back(1 + static_cast<int>(rng.uniform_int(0, 9)));
    const auto chains =
        vm::generate_chains(static_cast<std::size_t>(p), rng);

    vs::Timeline timeline;
    vs::ActionTrace actions;
    vs::EngineConfig cfg;
    cfg.iterations = 1;
    cfg.tasks_per_iteration = tasks;
    cfg.replica_cap = 0; // the validator forbids duplicate completions
    cfg.audit = true;
    cfg.max_slots = 500000;
    cfg.observers = {&timeline, &actions};

    const auto sim = vs::Simulation::from_chains(pf, chains, cfg, seed);
    // Alternate heuristics across seeds for coverage.
    const auto& names = volsched::core::all_heuristic_names();
    const auto sched =
        volsched::test::make_scheduler(names[seed % names.size()]);
    const auto metrics = sim.run(*sched);
    ASSERT_TRUE(metrics.completed);

    const auto rec =
        to_offline(pf, timeline, actions, tasks, metrics.makespan);
    const auto res = vo::validate(rec.instance, rec.schedule);
    EXPECT_TRUE(res.valid) << res.error << " (seed " << seed << ", "
                           << sched->name() << ")";
    EXPECT_TRUE(res.all_done);
    EXPECT_EQ(res.makespan, metrics.makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation, ::testing::Range(0, 34));

TEST(CrossValidation, DeterministicPipelineValidates) {
    // The canonical hand-derived pipeline also passes the model checker.
    vs::Timeline timeline;
    vs::ActionTrace actions;
    vs::EngineConfig cfg;
    cfg.iterations = 1;
    cfg.tasks_per_iteration = 2;
    cfg.replica_cap = 0;
    cfg.audit = true;
    cfg.observers = {&timeline, &actions};
    const auto pf = vs::Platform::homogeneous(1, 3, 1, 2, 2);
    // Always-UP chain.
    const vm::MarkovChain chain(vm::TransitionMatrix({{{1, 0, 0},
                                                       {1, 0, 0},
                                                       {1, 0, 0}}}));
    const auto sim = vs::Simulation::from_chains(pf, {chain, }, cfg, 5);
    const auto sched = volsched::test::make_scheduler("mct");
    const auto metrics = sim.run(*sched);
    ASSERT_TRUE(metrics.completed);
    ASSERT_EQ(metrics.makespan, 10);
    const auto rec = to_offline(pf, timeline, actions, 2, metrics.makespan);
    const auto res = vo::validate(rec.instance, rec.schedule);
    EXPECT_TRUE(res.valid) << res.error;
    EXPECT_EQ(res.makespan, 10);
}
