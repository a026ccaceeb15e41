/// Tests for the off-line makespan lower bounds, chain (de)serialization,
/// and the extension heuristics (threshold exclusion + hybrid).

#include <gtest/gtest.h>

#include <sstream>

#include "core/extensions.hpp"
#include "core/factory.hpp"
#include "markov/gen.hpp"
#include "markov/io.hpp"
#include "offline/bounds.hpp"
#include "offline/exact.hpp"
#include "sim/engine.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace vo = volsched::offline;
namespace vm = volsched::markov;
namespace vc = volsched::core;
namespace vt = volsched::test;
namespace vs = volsched::sim;

namespace {

vo::OfflineInstance always_up(int p, int w, int ncom, int t_prog, int t_data,
                              int m, int horizon) {
    vo::OfflineInstance inst;
    inst.platform.w.assign(static_cast<std::size_t>(p), w);
    inst.platform.ncom = ncom;
    inst.platform.t_prog = t_prog;
    inst.platform.t_data = t_data;
    inst.num_tasks = m;
    inst.horizon = horizon;
    inst.states.assign(static_cast<std::size_t>(p),
                       std::vector<vm::ProcState>(
                           static_cast<std::size_t>(horizon),
                           vm::ProcState::Up));
    return inst;
}

} // namespace

TEST(Bounds, CommunicationBoundIsTightOnDataBoundPipeline) {
    // p=1, w=1, Tprog=1, Tdata=3, m=3: exact optimum 11 = (1+9)/1 + 1.
    const auto inst = always_up(1, 1, 1, 1, 3, 3, 20);
    EXPECT_EQ(vo::communication_lower_bound(inst), 11);
    const auto exact = vo::solve_exact(inst);
    ASSERT_TRUE(exact.feasible);
    EXPECT_EQ(exact.makespan, vo::communication_lower_bound(inst));
}

TEST(Bounds, ComputeBoundIsTightOnComputeBoundPlatform) {
    // One processor, w=4, m=3: capacity reaches 3 tasks at slot 12.
    const auto inst = always_up(1, 4, 1, 1, 1, 3, 30);
    EXPECT_EQ(vo::compute_lower_bound(inst), 12);
}

TEST(Bounds, ComputeBoundSeesReclaimedGaps) {
    auto inst = always_up(1, 2, 1, 1, 1, 1, 10);
    inst.states = vo::states_from_strings({"rrrruuuuuu"});
    // First two UP slots are 4 and 5 -> one task possible at slot 6.
    EXPECT_EQ(vo::compute_lower_bound(inst), 6);
}

TEST(Bounds, InfeasibleHorizonDetectedWithoutSearch) {
    auto inst = always_up(1, 10, 1, 1, 1, 3, 8); // needs >= 30 compute slots
    EXPECT_GT(vo::compute_lower_bound(inst), inst.horizon);
    const auto exact = vo::solve_exact(inst);
    EXPECT_TRUE(exact.proven);
    EXPECT_FALSE(exact.feasible);
    EXPECT_EQ(exact.nodes, 0); // pruned before any search
}

// Property: the bound never exceeds the exact optimum.
class BoundProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoundProperty, NeverExceedsExactOptimum) {
    volsched::util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 900);
    vo::OfflineInstance inst;
    inst.num_tasks = 2 + static_cast<int>(rng.uniform_int(0, 1));
    inst.horizon = 16;
    inst.platform.ncom = 1 + static_cast<int>(rng.uniform_int(0, 1));
    inst.platform.t_prog = 1 + static_cast<int>(rng.uniform_int(0, 2));
    inst.platform.t_data = 1;
    for (int q = 0; q < 2; ++q) {
        inst.platform.w.push_back(1 + static_cast<int>(rng.uniform_int(0, 1)));
        std::vector<vm::ProcState> row;
        for (int t = 0; t < inst.horizon; ++t)
            row.push_back(rng.bernoulli(0.8) ? vm::ProcState::Up
                                             : vm::ProcState::Reclaimed);
        inst.states.push_back(std::move(row));
    }
    const auto exact = vo::solve_exact(inst, 20'000'000);
    if (!exact.proven || !exact.feasible) return;
    EXPECT_LE(vo::makespan_lower_bound(inst), exact.makespan)
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundProperty, ::testing::Range(0, 12));

TEST(MarkovIo, RoundTripsMatricesExactly) {
    volsched::util::Rng rng(5);
    std::vector<vm::TransitionMatrix> matrices;
    for (int i = 0; i < 6; ++i) matrices.push_back(vm::generate_matrix(rng));
    std::stringstream ss;
    vm::write_matrices(ss, matrices);
    const auto parsed = vm::read_matrices(ss);
    ASSERT_EQ(parsed.size(), matrices.size());
    for (std::size_t k = 0; k < matrices.size(); ++k)
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j)
                EXPECT_DOUBLE_EQ(
                    parsed[k](static_cast<vm::ProcState>(i),
                              static_cast<vm::ProcState>(j)),
                    matrices[k](static_cast<vm::ProcState>(i),
                                static_cast<vm::ProcState>(j)));
}

TEST(MarkovIo, ReadChainsValidates) {
    volsched::util::Rng rng(7);
    std::stringstream ss;
    vm::write_matrices(ss, {vm::generate_matrix(rng)});
    const auto chains = vm::read_chains(ss);
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_NEAR(chains[0].stationary().pi_u + chains[0].stationary().pi_r +
                    chains[0].stationary().pi_d,
                1.0, 1e-12);
}

TEST(MarkovIo, RejectsMalformedLines) {
    std::stringstream short_line("0.5 0.5\n");
    EXPECT_THROW(vm::read_matrices(short_line), std::invalid_argument);
    std::stringstream long_line(
        "0.9 0.05 0.05 0.9 0.05 0.05 0.9 0.05 0.05 0.1\n");
    EXPECT_THROW(vm::read_matrices(long_line), std::invalid_argument);
    std::stringstream bad_rows("0.5 0.1 0.1 0.9 0.05 0.05 0.9 0.05 0.05\n");
    EXPECT_THROW(vm::read_matrices(bad_rows), std::invalid_argument);
}

TEST(MarkovIo, SkipsComments) {
    std::stringstream ss(
        "# header\n0.9 0.05 0.05 0.9 0.05 0.05 0.9 0.05 0.05\n");
    EXPECT_EQ(vm::read_matrices(ss).size(), 1u);
}

// ---- extension heuristics ----------------------------------------------

namespace {

/// ViewFixture with the extension-test platform shape (w=3) and the view
/// pre-finalized, matching the historical MiniView helper.
struct MiniView : volsched::test::ViewFixture {
    explicit MiniView(std::vector<vm::MarkovChain> cs)
        : volsched::test::ViewFixture(std::move(cs), /*w=*/3) {
        finalize();
    }
};

vm::MarkovChain chain_with_pi_u(double self_up) {
    // Tune pi_u via the UP self-probability (rest split evenly).
    const double other = 0.5 * (1.0 - self_up);
    return vm::MarkovChain(vm::TransitionMatrix({{{self_up, other, other},
                                                  {0.5, 0.4, 0.1},
                                                  {0.5, 0.1, 0.4}}}));
}

} // namespace

TEST(Threshold, ExcludesLowAvailabilityProcessors) {
    // P0 mostly DOWN/RECLAIMED (pi_u small), P1 mostly UP but slower CT.
    MiniView f({chain_with_pi_u(0.2), chain_with_pi_u(0.98)});
    f.procs[0].w = 1; // P0 is the faster machine: MCT would take it
    f.view.procs = f.procs;
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(1);
    auto plain = vt::make_scheduler("mct");
    EXPECT_EQ(plain->select(f.view, std::vector<vs::ProcId>{0, 1}, nq, rng),
              0);
    auto thr = vt::make_scheduler("thr70:mct");
    EXPECT_EQ(thr->select(f.view, std::vector<vs::ProcId>{0, 1}, nq, rng), 1);
}

TEST(Threshold, FallsBackWhenAllExcluded) {
    MiniView f({chain_with_pi_u(0.2), chain_with_pi_u(0.3)});
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(2);
    auto thr = vt::make_scheduler("thr99:mct");
    const auto pick =
        thr->select(f.view, std::vector<vs::ProcId>{0, 1}, nq, rng);
    EXPECT_TRUE(pick == 0 || pick == 1);
}

TEST(Threshold, NameEncodesParameters) {
    auto thr = vt::make_scheduler("thr50:emct");
    EXPECT_EQ(thr->name(), "thr50:emct");
}

TEST(Threshold, RejectsMalformedNames) {
    EXPECT_THROW(vt::make_scheduler("thr:mct"), std::invalid_argument);
    EXPECT_THROW(vt::make_scheduler("thr500:mct"), std::invalid_argument);
    EXPECT_THROW(vt::make_scheduler("thr50:"), std::invalid_argument);
    EXPECT_THROW(vt::make_scheduler("thr50"), std::invalid_argument);
}

TEST(Hybrid, PrefersSurvivableProcessorDespiteSlowerSpeed) {
    // P0 fast but crash-prone; P1 a bit slower but safe.  The restart-aware
    // score E/P picks P1 once the crash risk outweighs the speed edge.
    const vm::MarkovChain risky(vm::TransitionMatrix({{{0.80, 0.0, 0.20},
                                                       {0.5, 0.4, 0.1},
                                                       {0.5, 0.1, 0.4}}}));
    const vm::MarkovChain safe(vm::TransitionMatrix({{{0.999, 0.0005, 0.0005},
                                                      {0.5, 0.4, 0.1},
                                                      {0.5, 0.1, 0.4}}}));
    MiniView f({risky, safe});
    f.procs[0].w = 8;
    f.procs[1].w = 10;
    f.view.procs = f.procs;
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(3);
    auto mct = vt::make_scheduler("mct");
    EXPECT_EQ(mct->select(f.view, std::vector<vs::ProcId>{0, 1}, nq, rng), 0);
    auto hybrid = vt::make_scheduler("hybrid");
    EXPECT_EQ(hybrid->select(f.view, std::vector<vs::ProcId>{0, 1}, nq, rng),
              1);
}

TEST(Extensions, AllNamesConstructAndComplete) {
    volsched::util::Rng rng(11);
    const auto chains = vm::generate_chains(6, rng);
    vs::Platform pf;
    pf.ncom = 2;
    pf.t_prog = 5;
    pf.t_data = 1;
    for (int q = 0; q < 6; ++q)
        pf.w.push_back(1 + static_cast<int>(rng.uniform_int(0, 9)));
    vs::EngineConfig cfg;
    cfg.iterations = 2;
    cfg.tasks_per_iteration = 5;
    cfg.audit = true;
    const auto sim = vs::Simulation::from_chains(pf, chains, cfg, 17);
    for (const auto& name : vc::extension_heuristic_names()) {
        const auto sched = vt::make_scheduler(name);
        EXPECT_EQ(sched->name(), name);
        EXPECT_TRUE(sim.run(*sched).completed) << name;
    }
}

TEST(PerProcMetrics, AccountingSumsMatchTotals) {
    volsched::util::Rng rng(13);
    const auto chains = vm::generate_chains(8, rng);
    vs::Platform pf;
    pf.ncom = 3;
    pf.t_prog = 4;
    pf.t_data = 1;
    for (int q = 0; q < 8; ++q)
        pf.w.push_back(1 + static_cast<int>(rng.uniform_int(0, 9)));
    vs::EngineConfig cfg;
    cfg.iterations = 3;
    cfg.tasks_per_iteration = 6;
    cfg.replica_cap = 2;
    cfg.audit = true;
    const auto sim = vs::Simulation::from_chains(pf, chains, cfg, 23);
    const auto sched = vt::make_scheduler("emct*");
    const auto m = sim.run(*sched);
    ASSERT_TRUE(m.completed);
    ASSERT_EQ(m.per_proc.size(), 8u);
    long long tasks = 0, compute = 0, transfer = 0, downs = 0;
    for (const auto& pp : m.per_proc) {
        tasks += pp.tasks_completed;
        compute += pp.compute_slots;
        transfer += pp.transfer_slots;
        downs += pp.down_events;
        EXPECT_LE(pp.up_slots, m.makespan);
    }
    EXPECT_EQ(tasks, m.tasks_completed);
    EXPECT_EQ(compute, m.compute_slots);
    EXPECT_EQ(transfer, m.transfer_slots);
    EXPECT_EQ(downs, m.down_events);
}
