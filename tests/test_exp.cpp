#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/factory.hpp"
#include "exp/dfb.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"

namespace ve = volsched::exp;

TEST(Scenario, RealizeIsDeterministic) {
    ve::Scenario sc;
    sc.seed = 987;
    const auto a = ve::realize(sc);
    const auto b = ve::realize(sc);
    EXPECT_EQ(a.platform.w, b.platform.w);
    ASSERT_EQ(a.chains.size(), b.chains.size());
    for (std::size_t q = 0; q < a.chains.size(); ++q)
        EXPECT_DOUBLE_EQ(a.chains[q].matrix().p_uu(),
                         b.chains[q].matrix().p_uu());
}

TEST(Scenario, SpeedsInPaperRange) {
    for (int wmin : {1, 4, 10}) {
        ve::Scenario sc;
        sc.wmin = wmin;
        sc.seed = 33 + wmin;
        const auto rs = ve::realize(sc);
        for (int w : rs.platform.w) {
            EXPECT_GE(w, wmin);
            EXPECT_LE(w, 10 * wmin);
        }
        EXPECT_EQ(rs.platform.t_data, wmin);
        EXPECT_EQ(rs.platform.t_prog, 5 * wmin);
    }
}

TEST(Scenario, ContentionFactorsScaleTransferTimes) {
    ve::Scenario sc;
    sc.wmin = 1;
    sc.tdata_factor = 5.0;
    sc.tprog_factor = 25.0;
    sc.seed = 5;
    const auto rs = ve::realize(sc);
    EXPECT_EQ(rs.platform.t_data, 5);
    EXPECT_EQ(rs.platform.t_prog, 25);
}

TEST(Scenario, RejectsBadParameters) {
    ve::Scenario sc;
    sc.p = 0;
    EXPECT_THROW(ve::realize(sc), std::invalid_argument);
}

TEST(Dfb, SingleInstanceBasics) {
    ve::DfbTable table(3);
    table.add_instance({100, 150, 100});
    EXPECT_EQ(table.instances(), 1);
    EXPECT_DOUBLE_EQ(table.mean_dfb(0), 0.0);
    EXPECT_DOUBLE_EQ(table.mean_dfb(1), 50.0);
    EXPECT_DOUBLE_EQ(table.mean_dfb(2), 0.0);
    EXPECT_EQ(table.wins(0), 1);
    EXPECT_EQ(table.wins(1), 0);
    EXPECT_EQ(table.wins(2), 1); // ties count as wins
}

TEST(Dfb, AveragesAcrossInstances) {
    ve::DfbTable table(2);
    table.add_instance({100, 120}); // dfb: 0, 20
    table.add_instance({110, 100}); // dfb: 10, 0
    EXPECT_DOUBLE_EQ(table.mean_dfb(0), 5.0);
    EXPECT_DOUBLE_EQ(table.mean_dfb(1), 10.0);
    EXPECT_EQ(table.wins(0), 1);
    EXPECT_EQ(table.wins(1), 1);
}

TEST(Dfb, RejectsBadInput) {
    ve::DfbTable table(2);
    EXPECT_THROW(table.add_instance({1, 2, 3}), std::invalid_argument);
    EXPECT_THROW(table.add_instance({0, 5}), std::invalid_argument);
}

TEST(Dfb, RejectsAnInstanceWithNoMakespans) {
    // Arity matches (0 == 0), so only the emptiness check stands between
    // the reduction and the best-of-nothing read.
    ve::DfbTable table(0);
    EXPECT_THROW(table.add_instance({}), std::invalid_argument);
    EXPECT_EQ(table.instances(), 0);
}

TEST(Dfb, MergeAccumulates) {
    ve::DfbTable a(2), b(2);
    a.add_instance({100, 200});
    b.add_instance({100, 100});
    a.merge(b);
    EXPECT_EQ(a.instances(), 2);
    EXPECT_DOUBLE_EQ(a.mean_dfb(1), 50.0);
    EXPECT_EQ(a.wins(1), 1);
    ve::DfbTable wrong(3);
    EXPECT_THROW(a.merge(wrong), std::invalid_argument);
}

TEST(Runner, AllHeuristicsShareTheAvailability) {
    ve::Scenario sc;
    sc.p = 8;
    sc.tasks = 5;
    sc.ncom = 3;
    sc.wmin = 1;
    sc.seed = 1234;
    const auto rs = ve::realize(sc);
    ve::RunConfig rc;
    rc.iterations = 2;
    const auto outcome =
        ve::run_instance(rs, sc.tasks, {"mct", "emct"}, rc, 555);
    ASSERT_EQ(outcome.makespans.size(), 2u);
    EXPECT_GT(outcome.makespans[0], 0);
    EXPECT_GT(outcome.makespans[1], 0);
    // Re-running is bit-identical.
    const auto again =
        ve::run_instance(rs, sc.tasks, {"mct", "emct"}, rc, 555);
    EXPECT_EQ(outcome.makespans, again.makespans);
}

TEST(Sweep, TinySweepProducesConsistentTables) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {4};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1, 2};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 6;
    cfg.run.iterations = 2;
    cfg.master_seed = 99;
    const std::vector<std::string> heuristics = {"mct", "random"};
    const auto result = ve::run_sweep(cfg, heuristics);
    EXPECT_EQ(result.overall.instances(), 2LL * 2 * 2);
    ASSERT_EQ(result.by_wmin.size(), 2u);
    long long by_wmin_total = 0;
    for (const auto& [wmin, table] : result.by_wmin)
        by_wmin_total += table.instances();
    EXPECT_EQ(by_wmin_total, result.overall.instances());
    // Wins per instance: at least one heuristic wins each instance.
    long long wins = 0;
    for (std::size_t h = 0; h < heuristics.size(); ++h)
        wins += result.overall.wins(h);
    EXPECT_GE(wins, result.overall.instances());
}

namespace {

/// Bit-identical table comparison: exact ==, not almost-equal (mirrors
/// test_campaign's shard-merge contract).
void expect_tables_identical(const ve::DfbTable& a, const ve::DfbTable& b) {
    ASSERT_EQ(a.num_heuristics(), b.num_heuristics());
    EXPECT_EQ(a.instances(), b.instances());
    for (std::size_t h = 0; h < a.num_heuristics(); ++h) {
        EXPECT_EQ(a.mean_dfb(h), b.mean_dfb(h));
        EXPECT_EQ(a.dfb(h).variance(), b.dfb(h).variance());
        EXPECT_EQ(a.dfb(h).min(), b.dfb(h).min());
        EXPECT_EQ(a.dfb(h).max(), b.dfb(h).max());
        EXPECT_EQ(a.makespan(h).mean(), b.makespan(h).mean());
        EXPECT_EQ(a.wins(h), b.wins(h));
    }
}

template <typename Key>
void expect_maps_identical(const std::map<Key, ve::DfbTable>& ma,
                           const std::map<Key, ve::DfbTable>& mb) {
    ASSERT_EQ(ma.size(), mb.size());
    for (const auto& [key, table] : ma) {
        const auto it = mb.find(key);
        ASSERT_NE(it, mb.end()) << "missing key " << key;
        expect_tables_identical(table, it->second);
    }
}

} // namespace

/// Thread count never leaks into results: every instance derives its RNG
/// streams from (master_seed, seed_ordinal, trial) and per-job tables merge
/// in job order, so every table at 2, 4 and 5 threads must equal the
/// 1-thread one bit for bit.
TEST(Sweep, BitIdenticalAcrossThreadCounts) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3, 4};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1, 2};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 4;
    cfg.run.iterations = 2;
    cfg.master_seed = 2026;
    const std::vector<std::string> heuristics = {"mct", "emct", "emct*"};

    cfg.threads = 1;
    const ve::SweepResult serial = ve::run_sweep(cfg, heuristics);
    ASSERT_EQ(serial.overall.instances(), 2 * 2 * 2 * 2);

    for (std::size_t threads : {2u, 4u, 5u}) {
        SCOPED_TRACE(threads);
        cfg.threads = threads;
        const ve::SweepResult parallel = ve::run_sweep(cfg, heuristics);
        EXPECT_EQ(parallel.heuristics, serial.heuristics);
        expect_tables_identical(parallel.overall, serial.overall);
        expect_maps_identical(parallel.by_wmin, serial.by_wmin);
        expect_maps_identical(parallel.by_tasks, serial.by_tasks);
        expect_maps_identical(parallel.by_ncom, serial.by_ncom);
        expect_maps_identical(parallel.by_checkpoint, serial.by_checkpoint);
    }
}

TEST(Sweep, RecordSinkReceivesEveryInstance) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3, 5};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 4;
    cfg.run.iterations = 1;
    cfg.threads = 3;
    std::vector<ve::InstanceRecord> rows;
    cfg.record = [&](const ve::InstanceRecord& rec) { rows.push_back(rec); };
    const auto result = ve::run_sweep(cfg, {"mct", "emct"});
    EXPECT_EQ(static_cast<long long>(rows.size()),
              result.overall.instances());
    int tasks3 = 0, tasks5 = 0;
    std::set<std::pair<std::uint64_t, int>> identities;
    for (const auto& rec : rows) {
        EXPECT_EQ(rec.makespans.size(), 2u);
        for (long long ms : rec.makespans) EXPECT_GT(ms, 0);
        tasks3 += (rec.scenario.tasks == 3);
        tasks5 += (rec.scenario.tasks == 5);
        identities.emplace(rec.scenario_ordinal, rec.trial);
    }
    EXPECT_EQ(tasks3, 4);
    EXPECT_EQ(tasks5, 4);
    // Every (scenario, trial) instance is reported exactly once.
    EXPECT_EQ(identities.size(), rows.size());
}

TEST(Sweep, RecordHookSeesTheSameSequenceAtAnyThreadCount) {
    // Jobs of unequal cost (tasks is the outermost grid axis) finish out
    // of order on a pool; the hook must still see the records in job
    // order, trials in order, exactly as on one thread.
    ve::SweepConfig cfg;
    cfg.tasks_values = {2, 8, 16};
    cfg.ncom_values = {1, 3};
    cfg.wmin_values = {1, 4};
    cfg.scenarios_per_cell = 3;
    cfg.trials_per_scenario = 2;
    cfg.p = 6;
    cfg.run.iterations = 1;
    cfg.master_seed = 21;
    using Row = std::tuple<std::uint64_t, int, std::vector<long long>>;
    const auto sequence = [&cfg](std::size_t threads) {
        std::vector<Row> rows;
        cfg.threads = threads;
        cfg.record = [&rows](const ve::InstanceRecord& rec) {
            rows.emplace_back(rec.scenario_ordinal, rec.trial, rec.makespans);
        };
        (void)ve::run_sweep(cfg, {"mct", "emct"});
        return rows;
    };
    const auto serial = sequence(1);
    ASSERT_EQ(serial.size(), 3u * 2 * 2 * 3 * 2);
    EXPECT_TRUE(std::is_sorted(serial.begin(), serial.end()));
    for (int repeat = 0; repeat < 3; ++repeat)
        EXPECT_EQ(sequence(4), serial) << "repeat " << repeat;
}

TEST(Sweep, ProgressCallbackCoversAllInstances) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1};
    cfg.scenarios_per_cell = 1;
    cfg.trials_per_scenario = 3;
    cfg.p = 4;
    cfg.run.iterations = 1;
    long long last = 0, total_seen = 0;
    cfg.progress = [&](long long done, long long total) {
        last = done;
        total_seen = total;
    };
    (void)ve::run_sweep(cfg, {"mct"});
    EXPECT_EQ(last, 3);
    EXPECT_EQ(total_seen, 3);
}
