/// End-to-end integration tests: whole-stack behaviour that the paper's
/// conclusions rely on, run at small scale so the suite stays fast.

#include <gtest/gtest.h>

#include <map>

#include "exp/dfb.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "sim/engine.hpp"
#include "support/fixtures.hpp"
#include "trace/empirical.hpp"
#include "trace/semi_markov.hpp"
#include "util/rng.hpp"

namespace ve = volsched::exp;
namespace vs = volsched::sim;
namespace vm = volsched::markov;
namespace vt = volsched::trace;

namespace {

/// Average dfb of each heuristic across a batch of small instances.
std::vector<double> average_dfb(const std::vector<std::string>& heuristics,
                                int wmin, int instances,
                                std::uint64_t seed_base,
                                int iterations = 3) {
    ve::DfbTable table(heuristics.size());
    for (int i = 0; i < instances; ++i) {
        ve::Scenario sc;
        sc.p = 10;
        sc.tasks = 8;
        sc.ncom = 3;
        sc.wmin = wmin;
        sc.seed = seed_base + static_cast<std::uint64_t>(i);
        const auto rs = ve::realize(sc);
        ve::RunConfig rc;
        rc.iterations = iterations;
        const auto outcome = ve::run_instance(rs, sc.tasks, heuristics, rc,
                                              seed_base * 1000 + i);
        table.add_instance(outcome.makespans);
    }
    std::vector<double> out;
    for (std::size_t h = 0; h < heuristics.size(); ++h)
        out.push_back(table.mean_dfb(h));
    return out;
}

} // namespace

TEST(Integration, GreedyBeatsUniformRandomOnAverage) {
    // The paper's headline qualitative result (Table 2): informed greedy
    // heuristics dominate blind random selection.
    const std::vector<std::string> heuristics = {"emct", "mct", "random"};
    const auto dfb = average_dfb(heuristics, /*wmin=*/2, /*instances=*/30,
                                 /*seed=*/2024);
    EXPECT_LT(dfb[0], dfb[2]);
    EXPECT_LT(dfb[1], dfb[2]);
}

TEST(Integration, SpeedWeightedRandomBeatsUnweighted) {
    // Table 2: randomXw always outperforms randomX.
    const std::vector<std::string> heuristics = {"random2w", "random2"};
    const auto dfb = average_dfb(heuristics, /*wmin=*/2, /*instances=*/40,
                                 /*seed=*/4048);
    EXPECT_LT(dfb[0], dfb[1]);
}

TEST(Integration, AllHeuristicsCompleteOnSemiMarkovTraces) {
    // Section 8 extension: replay non-memoryless availability; beliefs are
    // the Markov chain fitted from a recorded history of each process.
    const int p = 8;
    vs::Platform pf;
    pf.ncom = 3;
    pf.t_prog = 5;
    pf.t_data = 1;
    volsched::util::Rng rng(71);
    std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
    std::vector<vm::MarkovChain> beliefs;
    for (int q = 0; q < p; ++q) {
        pf.w.push_back(1 + static_cast<int>(rng.uniform_int(0, 9)));
        const auto params = vt::desktop_grid_params(60.0 + 10.0 * q);
        vt::SemiMarkovAvailability proto(params);
        // Fit a Markov belief from a recorded history (what a Markov-based
        // scheduler could actually estimate in the field).
        volsched::util::Rng fit_rng(1000 + q);
        const auto history = vt::record(proto, 20000, fit_rng);
        beliefs.emplace_back(vt::fit_markov({history}));
        models.push_back(std::make_unique<vt::SemiMarkovAvailability>(params));
    }
    vs::EngineConfig cfg;
    cfg.iterations = 2;
    cfg.tasks_per_iteration = 6;
    cfg.audit = true;
    cfg.max_slots = 500000;
    const vs::Simulation sim(pf, std::move(models), beliefs, cfg, 99);
    for (const auto& name : {"emct*", "ud*", "mct", "random2w"}) {
        const auto sched = volsched::test::make_scheduler(name);
        const auto metrics = sim.run(*sched);
        EXPECT_TRUE(metrics.completed) << name;
    }
}

TEST(Integration, ReplicationNeverHurtsMuchAndOftenHelps) {
    // The paper argues replication is "never detrimental"; with volatile
    // processors the replicated runs should not be meaningfully slower on
    // aggregate.
    long long with_rep = 0, without_rep = 0;
    for (int i = 0; i < 15; ++i) {
        ve::Scenario sc;
        sc.p = 10;
        sc.tasks = 4; // small m: replication matters most (Section 6.1)
        sc.ncom = 3;
        sc.wmin = 3;
        sc.seed = 8800 + static_cast<std::uint64_t>(i);
        const auto rs = ve::realize(sc);
        ve::RunConfig rc;
        rc.iterations = 2;
        rc.replica_cap = 2;
        const auto rep = ve::run_instance(rs, sc.tasks, {"emct"}, rc, 17 + i);
        rc.replica_cap = 0;
        const auto norep =
            ve::run_instance(rs, sc.tasks, {"emct"}, rc, 17 + i);
        with_rep += rep.makespans[0];
        without_rep += norep.makespans[0];
    }
    EXPECT_LE(with_rep, without_rep + without_rep / 10);
}

TEST(Integration, HigherVolatilityMeansLongerMakespans) {
    // Scaling wmin up makes tasks long relative to availability intervals;
    // makespans (in slots) must grow superlinearly versus the wmin=1 case.
    ve::Scenario sc;
    sc.p = 10;
    sc.tasks = 8;
    sc.ncom = 3;
    sc.seed = 31337;
    ve::RunConfig rc;
    rc.iterations = 2;
    sc.wmin = 1;
    const auto fast = ve::run_instance(ve::realize(sc), sc.tasks, {"emct"},
                                       rc, 3);
    sc.wmin = 6;
    const auto slow = ve::run_instance(ve::realize(sc), sc.tasks, {"emct"},
                                       rc, 3);
    EXPECT_GT(slow.makespans[0], fast.makespans[0]);
}

TEST(Integration, MetricsAreInternallyConsistent) {
    ve::Scenario sc;
    sc.p = 12;
    sc.tasks = 10;
    sc.ncom = 4;
    sc.wmin = 2;
    sc.seed = 60601;
    const auto rs = ve::realize(sc);
    ve::RunConfig rc;
    rc.iterations = 3;
    const auto outcome = ve::run_instance(rs, sc.tasks, {"emct*"}, rc, 42);
    const auto& m = outcome.metrics[0];
    ASSERT_TRUE(m.completed);
    EXPECT_EQ(m.tasks_completed, 3 * 10);
    EXPECT_GE(m.replica_wins, 0);
    EXPECT_LE(m.replica_wins, m.replicas_committed);
    EXPECT_LE(m.wasted_compute_slots, m.compute_slots);
    EXPECT_GT(m.transfer_slots, 0);
}
