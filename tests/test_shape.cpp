/// Tests of the automated reproduction verdicts: hand-built sweep results
/// with known orderings must produce the expected PASS/FAIL pattern, a
/// real (small) sweep must reproduce the paper's Table 2 shape, and a
/// campaign header must name the paper experiment it runs, if any.

#include <gtest/gtest.h>

#include "api/experiment_builder.hpp"
#include "core/factory.hpp"
#include "exp/campaign.hpp"
#include "exp/shape.hpp"
#include "exp/sweep.hpp"

namespace ve = volsched::exp;
namespace vc = volsched::core;
namespace va = volsched::api;

namespace {

/// Builds a SweepResult whose single instance fixes the dfb ordering: the
/// heuristic at rank k gets makespan base + k * step.
ve::SweepResult synthetic_result(const std::vector<std::string>& names,
                                 const std::vector<int>& ranks) {
    ve::SweepResult result(names);
    std::vector<long long> makespans;
    for (int r : ranks) makespans.push_back(100 + 10LL * r);
    result.overall.add_instance(makespans);
    return result;
}

} // namespace

TEST(ShapeTable2, PassesOnPaperOrdering) {
    const auto& names = vc::all_heuristic_names();
    // Factory order is the paper's Table 2 order: rank = position.
    std::vector<int> ranks;
    for (std::size_t h = 0; h < names.size(); ++h)
        ranks.push_back(static_cast<int>(h));
    const auto result = synthetic_result(names, ranks);
    const auto checks = ve::check_table2_shape(result);
    EXPECT_TRUE(ve::all_passed(checks)) << ve::render_checks(checks);
    EXPECT_EQ(checks.size(), 9u);
}

TEST(ShapeTable2, FailsWhenRandomBeatsGreedy) {
    const auto& names = vc::all_heuristic_names();
    std::vector<int> ranks;
    for (std::size_t h = 0; h < names.size(); ++h)
        ranks.push_back(static_cast<int>(h));
    // Make plain "random" (last) the overall winner.
    ranks.back() = -5;
    const auto result = synthetic_result(names, ranks);
    const auto checks = ve::check_table2_shape(result);
    EXPECT_FALSE(ve::all_passed(checks));
}

TEST(ShapeTable2, ThrowsOnWrongHeuristicSet) {
    const auto result = synthetic_result({"mct", "emct"}, {0, 1});
    EXPECT_THROW(ve::check_table2_shape(result), std::invalid_argument);
}

TEST(ShapeTable3, DistinguishesTheTwoRegimes) {
    const auto& names = vc::greedy_heuristic_names();
    // x5: emct best; x10: ud best with plain mct collapsing.
    // names order: mct, mct*, emct, emct*, lw, lw*, ud, ud*.
    const auto x5 = synthetic_result(names, {4, 3, 0, 1, 6, 5, 8, 7});
    const auto x10 = synthetic_result(names, {30, 8, 3, 3, 4, 4, 0, 1});
    const auto checks5 = ve::check_table3_x5_shape(x5);
    EXPECT_EQ(checks5.size(), 1u);
    EXPECT_TRUE(ve::all_passed(checks5)) << ve::render_checks(checks5);
    const auto checks10 = ve::check_table3_x10_shape(x10);
    EXPECT_EQ(checks10.size(), 3u);
    EXPECT_TRUE(ve::all_passed(checks10)) << ve::render_checks(checks10);

    // Each setting's result fails the other setting's claims.
    EXPECT_FALSE(ve::all_passed(ve::check_table3_x5_shape(x10)));
    EXPECT_FALSE(ve::all_passed(ve::check_table3_x10_shape(x5)));
}

TEST(ShapeRender, MentionsEveryCheck) {
    const auto& names = vc::greedy_heuristic_names();
    const auto x10 = synthetic_result(names, {30, 8, 3, 3, 4, 4, 0, 1});
    const auto checks = ve::check_table3_x10_shape(x10);
    const auto text = ve::render_checks(checks);
    std::size_t lines = 0;
    for (char c : text) lines += (c == '\n');
    EXPECT_EQ(lines, checks.size());
    EXPECT_NE(text.find("[PASS]"), std::string::npos);
}

TEST(ShapeFigure2, DetectsCrossoverAndTrends) {
    const std::vector<std::string> names = {"mct",  "mct*", "emct",
                                            "emct*", "ud*",  "lw*"};
    ve::SweepResult result(names);
    // wmin=1: mct best, ud*/lw* terrible; wmin=9: emct best, ud*/lw* good.
    auto add = [&](int wmin, std::vector<long long> ms) {
        auto [it, ok] = result.by_wmin.try_emplace(wmin, names.size());
        it->second.add_instance(ms);
        result.overall.add_instance(ms);
    };
    add(1, {100, 101, 110, 111, 180, 200});
    add(5, {108, 108, 100, 100, 120, 130});
    add(9, {115, 115, 100, 100, 105, 108});
    const auto checks = ve::check_figure2_shape(result);
    EXPECT_TRUE(ve::all_passed(checks)) << ve::render_checks(checks);
}

TEST(ShapeFigure2, FailsWithoutCrossover) {
    const std::vector<std::string> names = {"mct",  "mct*", "emct",
                                            "emct*", "ud*",  "lw*"};
    ve::SweepResult result(names);
    auto add = [&](int wmin, std::vector<long long> ms) {
        auto [it, ok] = result.by_wmin.try_emplace(wmin, names.size());
        it->second.add_instance(ms);
    };
    // MCT always wins: no crossover, EMCT never below.
    add(1, {100, 100, 120, 120, 150, 150});
    add(9, {100, 100, 120, 120, 150, 160});
    const auto checks = ve::check_figure2_shape(result);
    EXPECT_FALSE(ve::all_passed(checks));
}

TEST(ShapeEndToEnd, SmallRealSweepReproducesTable2Shape) {
    // A modest but real sweep.  The wmin values must span the grid the way
    // the paper's does (1..10): the "MCT < UD" ordering only holds when
    // low-wmin cells — where UD's coarse crash estimate misleads it — are
    // part of the average (cf. Figure 2).
    ve::SweepConfig cfg;
    cfg.tasks_values = {5, 10};
    cfg.ncom_values = {5};
    cfg.wmin_values = {1, 5, 9};
    cfg.scenarios_per_cell = 3;
    cfg.trials_per_scenario = 2;
    cfg.p = 12;
    cfg.run.iterations = 5;
    cfg.master_seed = 20110516;
    const auto result = ve::run_sweep(cfg, vc::all_heuristic_names());
    const auto checks = ve::check_table2_shape(result);
    EXPECT_TRUE(ve::all_passed(checks)) << ve::render_checks(checks);
}

namespace {

/// The paper experiment that a campaign over `experiment` runs, as merge
/// finds it from the shard header ("none" for any other grid).
std::string experiment_of(const va::ExperimentBuilder& experiment) {
    ve::CampaignConfig cfg;
    cfg.sweep = experiment.sweep_config();
    cfg.heuristics = experiment.heuristic_specs();
    const auto* found = ve::find_paper_experiment(
        ve::parse_campaign_header(ve::campaign_header_line(cfg)));
    return found ? found->name : "none";
}

// The four experiments' grids, sized and seeded as the documented
// `volsched_campaign run` commands size and seed them.
va::ExperimentBuilder table2(int scenarios, int trials) {
    va::ExperimentBuilder b;
    b.all_heuristics().scenarios_per_cell(scenarios).trials(trials).seed(
        20110516);
    return b;
}

va::ExperimentBuilder figure2(int scenarios, int trials) {
    va::ExperimentBuilder b;
    b.heuristics({"mct", "mct*", "emct", "emct*", "ud*", "lw*"})
        .scenarios_per_cell(scenarios)
        .trials(trials)
        .seed(20110516);
    return b;
}

va::ExperimentBuilder table3(int factor, int scenarios, int trials) {
    va::ExperimentBuilder b;
    b.greedy_heuristics()
        .tasks({20})
        .ncom({5})
        .wmin({1})
        .tdata_factor(factor)
        .tprog_factor(5.0 * factor)
        .scenarios_per_cell(scenarios)
        .trials(trials)
        .seed(20110516 + static_cast<std::uint64_t>(factor));
    return b;
}

} // namespace

TEST(ShapeExperiments, RecognisesThePaperGridsAtDefaultAndPaperScale) {
    const std::pair<const char*, va::ExperimentBuilder> cases[] = {
        {"Table 2", table2(2, 2)},
        {"Table 2", table2(247, 10)},
        {"Figure 2", figure2(2, 2)},
        {"Figure 2", figure2(247, 10)},
        {"Table 3 (x5)", table3(5, 30, 3)},
        {"Table 3 (x5)", table3(5, 100, 10)},
        {"Table 3 (x10)", table3(10, 30, 3)},
        {"Table 3 (x10)", table3(10, 100, 10)},
    };
    for (const auto& [name, experiment] : cases)
        EXPECT_EQ(experiment_of(experiment), name)
            << experiment.sweep_config().scenarios_per_cell << " scenarios";
}

TEST(ShapeExperiments, RecognisesNoOtherGrid) {
    va::ExperimentBuilder smoke; // volsched_campaign run --smoke
    smoke.heuristics({"mct", "emct"})
        .tasks({3})
        .ncom({2})
        .wmin({1, 2})
        .processors(4)
        .scenarios_per_cell(2)
        .trials(2)
        .iterations(2);
    auto reordered = figure2(2, 2);
    reordered.heuristics({"emct", "emct*", "mct", "mct*", "ud*", "lw*"});
    const std::pair<const char*, va::ExperimentBuilder> cases[] = {
        {"smoke grid", smoke},
        {"Table 2 at p 12", table2(2, 2).processors(12)},
        {"Table 3 (x5) with tprog 30", table3(5, 30, 3).tprog_factor(30)},
        {"Table 2 with a none,daly checkpoint axis",
         table2(2, 2).checkpoints({"none", "daly"})},
        {"Figure 2's heuristics in another order", reordered},
    };
    for (const auto& [what, experiment] : cases)
        EXPECT_EQ(experiment_of(experiment), "none") << what;
}
