/// Seed-determinism regression suite: a fixed `Scenario::seed` must produce a
/// bit-identical availability realization, and — because the engine draws
/// availability from RNG streams independent of the heuristic's stream — the
/// identical schedule (action trace) and metrics for each of the eight greedy
/// heuristics on repeated runs.  This is the property the paper's
/// per-instance "degradation from best" metric relies on (engine.hpp).

#include <gtest/gtest.h>

#include <memory>

#include <sstream>

#include "api/simulation_builder.hpp"
#include "ckpt/registry.hpp"
#include "core/factory.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/trace.hpp"
#include "sim/action_trace.hpp"
#include "sim/engine.hpp"
#include "sim/events.hpp"
#include "sim/metrics_io.hpp"
#include "sim/timeline.hpp"
#include "support/fixtures.hpp"
#include "support/golden.hpp"
#include "trace/semi_markov.hpp"
#include "trace/sojourn.hpp"

namespace vs = volsched::sim;
namespace vc = volsched::core;
namespace ve = volsched::exp;
namespace vt = volsched::test;

namespace {

/// Runs one heuristic on a freshly-built simulation over the realized
/// scenario, recording the exact per-slot actions.
vs::RunMetrics run_traced(const ve::RealizedScenario& rs,
                          const std::string& heuristic, int tasks,
                          std::uint64_t sim_seed, vs::ActionTrace& trace) {
    vs::EngineConfig cfg = vt::audited_config(2, tasks);
    cfg.observers = {&trace};
    const auto sim =
        vs::Simulation::from_chains(rs.platform, rs.chains, cfg, sim_seed);
    const auto sched = vt::make_scheduler(heuristic);
    return sim.run(*sched);
}

bool same_trace(const vs::ActionTrace& a, const vs::ActionTrace& b) {
    if (a.procs() != b.procs() || a.slots() != b.slots()) return false;
    for (int q = 0; q < a.procs(); ++q) {
        const auto& ra = a.row(q);
        const auto& rb = b.row(q);
        for (std::size_t t = 0; t < ra.size(); ++t)
            if (ra[t].recv != rb[t].recv || ra[t].compute != rb[t].compute)
                return false;
    }
    return true;
}

/// Run-length-encoded text form of an action trace: one line per processor,
/// `<count>x<recv>/<compute>` tokens.  Verbatim per-slot content, compact
/// enough to commit as a golden.
std::string trace_to_text(const vs::ActionTrace& t) {
    std::ostringstream os;
    for (int q = 0; q < t.procs(); ++q) {
        os << 'q' << q << ':';
        const auto& row = t.row(q);
        std::size_t i = 0;
        while (i < row.size()) {
            std::size_t j = i;
            while (j < row.size() && row[j].recv == row[i].recv &&
                   row[j].compute == row[i].compute)
                ++j;
            os << ' ' << (j - i) << 'x' << row[i].recv << '/'
               << row[i].compute;
            i = j;
        }
        os << '\n';
    }
    return os.str();
}

/// Run-length-encoded text form of a timeline (same information as
/// Timeline::render, minus the ruler): one line per processor.
std::string timeline_to_text(const vs::Timeline& t) {
    std::ostringstream os;
    for (int q = 0; q < t.procs(); ++q) {
        os << 'q' << q << ':';
        long long i = 0;
        while (i < t.slots()) {
            long long j = i;
            while (j < t.slots() && t.at(q, j) == t.at(q, i)) ++j;
            os << ' ' << (j - i) << t.at(q, i);
            i = j;
        }
        os << '\n';
    }
    return os.str();
}

} // namespace

TEST(SeedDeterminism, RealizationIsBitIdentical) {
    const auto sc = vt::small_scenario(2024);
    const auto a = ve::realize(sc);
    const auto b = ve::realize(sc);
    ASSERT_EQ(a.platform.w, b.platform.w);
    EXPECT_EQ(a.platform.ncom, b.platform.ncom);
    EXPECT_EQ(a.platform.t_prog, b.platform.t_prog);
    EXPECT_EQ(a.platform.t_data, b.platform.t_data);
    ASSERT_EQ(a.chains.size(), b.chains.size());
    for (std::size_t q = 0; q < a.chains.size(); ++q)
        EXPECT_TRUE(vt::same_matrix(a.chains[q].matrix(),
                                    b.chains[q].matrix()))
            << "chain " << q << " differs between realizations";
}

TEST(SeedDeterminism, DifferentSeedsDifferentRealizations) {
    const auto a = ve::realize(vt::small_scenario(1));
    const auto b = ve::realize(vt::small_scenario(2));
    bool any_diff = a.platform.w != b.platform.w;
    for (std::size_t q = 0; !any_diff && q < a.chains.size(); ++q)
        any_diff = !vt::same_matrix(a.chains[q].matrix(),
                                    b.chains[q].matrix());
    EXPECT_TRUE(any_diff) << "seeds 1 and 2 produced identical platforms";
}

TEST(SeedDeterminism, EveryGreedyHeuristicReplaysIdentically) {
    const auto sc = vt::small_scenario(77);
    const auto rs = ve::realize(sc);
    for (const auto& name : vc::greedy_heuristic_names()) {
        vs::ActionTrace t1, t2;
        const auto m1 = run_traced(rs, name, sc.tasks, 5, t1);
        const auto m2 = run_traced(rs, name, sc.tasks, 5, t2);
        EXPECT_EQ(m1.makespan, m2.makespan) << name;
        EXPECT_EQ(m1.completed, m2.completed) << name;
        EXPECT_EQ(m1.tasks_completed, m2.tasks_completed) << name;
        EXPECT_EQ(m1.iteration_ends, m2.iteration_ends) << name;
        EXPECT_TRUE(same_trace(t1, t2)) << name << ": schedules differ";
    }
}

TEST(SeedDeterminism, BuilderPathReplaysTheConstructorPathExactly) {
    // The facade builder must be a pure re-packaging: same platform,
    // chains, config and seed => bit-identical schedule and metrics.
    const auto sc = vt::small_scenario(77);
    const auto rs = ve::realize(sc);
    for (const auto& name : vc::greedy_heuristic_names()) {
        vs::ActionTrace t1, t2;
        const auto m1 = run_traced(rs, name, sc.tasks, 5, t1);

        vs::EngineConfig cfg = vt::audited_config(2, sc.tasks);
        const auto sim = vs::Simulation::builder()
                             .platform(rs.platform)
                             .markov(rs.chains)
                             .config(cfg)
                             .observe(&t2)
                             .seed(5)
                             .build();
        const auto sched = vt::make_scheduler(name);
        const auto m2 = sim.run(*sched);

        EXPECT_EQ(m1.makespan, m2.makespan) << name;
        EXPECT_EQ(m1.completed, m2.completed) << name;
        EXPECT_EQ(m1.tasks_completed, m2.tasks_completed) << name;
        EXPECT_EQ(m1.iteration_ends, m2.iteration_ends) << name;
        EXPECT_TRUE(same_trace(t1, t2))
            << name << ": builder-built simulation diverged";
    }
}

TEST(SeedDeterminism, SlotSkippingLeavesActionTracesUnchanged) {
    // The dead-stretch fast-forward may only elide slots in which nothing
    // can happen, so metrics and the exact per-slot action traces must be
    // bit-identical with the optimization on or off.  Volatile chains on a
    // tiny platform make all-workers-DOWN stretches frequent enough that
    // the skip path genuinely fires (asserted via dead_slots_skipped).
    vs::Platform pf;
    pf.w = {2, 3, 4};
    pf.ncom = 2;
    pf.t_prog = 3;
    pf.t_data = 1;
    const std::vector<volsched::markov::MarkovChain> chains(
        3, vt::chain3(0.35, 0.05, 0.10, 0.30, 0.15, 0.05));

    long long skipped_total = 0;
    for (const auto& name : vc::greedy_heuristic_names()) {
        vs::ActionTrace skip_trace, step_trace;

        vs::EngineConfig cfg = vt::audited_config(2, 4);
        cfg.event_driven = false; // this test pins the slot loop's skip path
        cfg.skip_dead_slots = true;
        cfg.observers = {&skip_trace};
        const auto skipping =
            vs::Simulation::from_chains(pf, chains, cfg, 17);
        const auto sched1 = vt::make_scheduler(name);
        const auto m1 = skipping.run(*sched1);

        cfg.skip_dead_slots = false;
        cfg.observers = {&step_trace};
        const auto stepping =
            vs::Simulation::from_chains(pf, chains, cfg, 17);
        const auto sched2 = vt::make_scheduler(name);
        const auto m2 = stepping.run(*sched2);

        EXPECT_EQ(m2.dead_slots_skipped, 0) << name;
        EXPECT_EQ(m1.makespan, m2.makespan) << name;
        EXPECT_EQ(m1.completed, m2.completed) << name;
        EXPECT_EQ(m1.tasks_completed, m2.tasks_completed) << name;
        EXPECT_EQ(m1.down_events, m2.down_events) << name;
        EXPECT_EQ(m1.transfer_slots, m2.transfer_slots) << name;
        EXPECT_EQ(m1.compute_slots, m2.compute_slots) << name;
        EXPECT_EQ(m1.iteration_ends, m2.iteration_ends) << name;
        ASSERT_EQ(m1.per_proc.size(), m2.per_proc.size()) << name;
        for (std::size_t q = 0; q < m1.per_proc.size(); ++q) {
            EXPECT_EQ(m1.per_proc[q].up_slots, m2.per_proc[q].up_slots)
                << name << " proc " << q;
            EXPECT_EQ(m1.per_proc[q].down_events, m2.per_proc[q].down_events)
                << name << " proc " << q;
        }
        EXPECT_TRUE(same_trace(skip_trace, step_trace))
            << name << ": slot-skipping changed the action trace";
        skipped_total += m1.dead_slots_skipped;
    }
    EXPECT_GT(skipped_total, 0)
        << "scenario never exercised the dead-stretch fast-forward; "
           "volatility too low for the test to be meaningful";
}

TEST(SeedDeterminism, SemiMarkovSlotSkippingLeavesActionTracesUnchanged) {
    // The Markov variant above pins skip on/off equality for memoryless
    // chains; heavy-tailed semi-Markov sojourns are the case the RLE
    // fast-forward was built for (multi-hundred-slot absences), and their
    // non-geometric run lengths exercise next_change_at differently — so
    // the equality is pinned for a SemiMarkovAvailability fleet too.
    using volsched::trace::SemiMarkovAvailability;
    using volsched::trace::SemiMarkovParams;
    using volsched::trace::SojournDist;
    constexpr int kProcs = 3;
    const auto pf =
        vs::Platform::homogeneous(kProcs, /*w_all=*/6, /*ncom=*/2,
                                  /*t_prog=*/4, /*t_data=*/1);
    SemiMarkovParams params;
    params.sojourn = {SojournDist::weibull_with_mean(0.7, 10.0),
                      SojournDist::weibull_with_mean(0.9, 25.0),
                      SojournDist::weibull_with_mean(0.8, 120.0)};
    params.jump[0] = {0.0, 0.4, 0.6};
    params.jump[1] = {0.5, 0.0, 0.5};
    params.jump[2] = {0.9, 0.1, 0.0};
    const std::vector<volsched::markov::MarkovChain> beliefs(
        kProcs, volsched::markov::MarkovChain(
                    SemiMarkovAvailability(params)
                        .equivalent_markov_matrix()));

    long long skipped_total = 0;
    for (const auto& name : vc::greedy_heuristic_names()) {
        vs::ActionTrace traces[2];
        vs::RunMetrics metrics[2];
        for (int skip = 0; skip < 2; ++skip) {
            std::vector<
                std::unique_ptr<volsched::markov::AvailabilityModel>>
                models;
            for (int q = 0; q < kProcs; ++q)
                models.push_back(
                    std::make_unique<SemiMarkovAvailability>(params));
            vs::EngineConfig cfg = vt::audited_config(2, 4);
            cfg.skip_dead_slots = skip == 1;
            auto sim = vs::Simulation::builder()
                           .platform(pf)
                           .models(std::move(models))
                           .beliefs(beliefs)
                           .config(cfg)
                           .observe(&traces[skip])
                           .event_driven(false) // pins the slot loop's skip
                           .seed(23)
                           .build();
            const auto sched = vt::make_scheduler(name);
            metrics[skip] = sim.run(*sched);
        }
        EXPECT_EQ(metrics[0].dead_slots_skipped, 0) << name;
        EXPECT_EQ(metrics[0].makespan, metrics[1].makespan) << name;
        EXPECT_EQ(metrics[0].completed, metrics[1].completed) << name;
        EXPECT_EQ(metrics[0].tasks_completed, metrics[1].tasks_completed)
            << name;
        EXPECT_EQ(metrics[0].down_events, metrics[1].down_events) << name;
        EXPECT_EQ(metrics[0].transfer_slots, metrics[1].transfer_slots)
            << name;
        EXPECT_EQ(metrics[0].compute_slots, metrics[1].compute_slots)
            << name;
        EXPECT_EQ(metrics[0].iteration_ends, metrics[1].iteration_ends)
            << name;
        ASSERT_EQ(metrics[0].per_proc.size(), metrics[1].per_proc.size())
            << name;
        for (std::size_t q = 0; q < metrics[0].per_proc.size(); ++q) {
            EXPECT_EQ(metrics[0].per_proc[q].up_slots,
                      metrics[1].per_proc[q].up_slots)
                << name << " proc " << q;
            EXPECT_EQ(metrics[0].per_proc[q].down_events,
                      metrics[1].per_proc[q].down_events)
                << name << " proc " << q;
        }
        EXPECT_TRUE(same_trace(traces[0], traces[1]))
            << name << ": semi-Markov slot-skipping changed the action trace";
        skipped_total += metrics[1].dead_slots_skipped;
    }
    EXPECT_GT(skipped_total, 0)
        << "fleet never exercised the dead-stretch fast-forward; absences "
           "too short for the test to be meaningful";
}

TEST(SeedDeterminism, HeuristicsShareTheAvailabilityRealization) {
    // run_instance gives every heuristic the same availability draw; the
    // per-processor UP-slot accounting must therefore agree across
    // heuristics that run for the same number of slots.
    const auto sc = vt::small_scenario(31);
    const auto rs = ve::realize(sc);
    ve::RunConfig cfg;
    cfg.iterations = 2;
    const auto out1 = ve::run_instance(rs, sc.tasks,
                                       vc::greedy_heuristic_names(), cfg, 9);
    const auto out2 = ve::run_instance(rs, sc.tasks,
                                       vc::greedy_heuristic_names(), cfg, 9);
    ASSERT_EQ(out1.makespans.size(), vc::greedy_heuristic_names().size());
    EXPECT_EQ(out1.makespans, out2.makespans)
        << "repeated run_instance with one trial seed changed makespans";
}

namespace {

/// Shared body of the SoA-vs-seed golden pins below: runs every greedy
/// heuristic over the same realized scenario and serializes the full
/// RunMetrics JSON + exact action trace + timeline into one text blob that
/// is compared against a golden generated from the pre-SoA engine
/// (regenerate only with VOLSCHED_UPDATE_GOLDEN=1 and a known-good tree).
std::string greedy_run_blob(bool event_core) {
    const auto sc = vt::small_scenario(77);
    const auto rs = ve::realize(sc);
    std::string blob;
    for (const auto& name : vc::greedy_heuristic_names()) {
        vs::ActionTrace trace;
        vs::Timeline timeline;
        vs::EngineConfig cfg = vt::audited_config(2, sc.tasks);
        cfg.event_driven = event_core;
        cfg.observers = {&trace, &timeline};
        const auto sim =
            vs::Simulation::from_chains(rs.platform, rs.chains, cfg, 5);
        const auto sched = vt::make_scheduler(name);
        const auto m = sim.run(*sched);
        blob += "== " + name + " ==\n";
        blob += vs::metrics_to_json(m);
        blob += "\n-- actions --\n";
        blob += trace_to_text(trace);
        blob += "-- timeline --\n";
        blob += timeline_to_text(timeline);
    }
    return blob;
}

} // namespace

// The SoA worker-state layout and the batched/memoized scoring path must
// not move a single bit of output.  These pins compare against goldens
// captured *before* that refactor, for both stepping cores — a change in
// scheduler decisions, tie-breaks, RNG consumption order, or metrics
// accounting shows up as a golden diff, not just as self-consistency.
TEST(SeedDeterminism, GreedyRunsMatchPreSoAGoldenEventCore) {
    EXPECT_TRUE(vt::matches_golden(greedy_run_blob(/*event_core=*/true),
                                   "seed_determinism_greedy_event.txt"));
}

TEST(SeedDeterminism, GreedyRunsMatchPreSoAGoldenSlotCore) {
    EXPECT_TRUE(vt::matches_golden(greedy_run_blob(/*event_core=*/false),
                                   "seed_determinism_greedy_slot.txt"));
}

namespace {

/// FNV-1a 64-bit digest: the event log and the trace export are pinned by
/// digest plus size (verbatim they would dwarf the rest of the golden).
std::string digest(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    std::ostringstream os;
    os << s.size() << " bytes, fnv1a " << std::hex << h;
    return os.str();
}

/// An engine regime the greedy goldens above never reach: a scheduler
/// class, the replica cap, a checkpoint policy sharing the transfer FIFO,
/// or a zero-cost transfer path, each raced by a few specs.
struct Regime {
    std::string name;
    vs::SchedulerClass plan_class = vs::SchedulerClass::Dynamic;
    int p = 8;
    int tasks = 6;
    int ncom = 3;
    int wmin = 2;
    int replica_cap = 2;
    int t_prog = -1; ///< -1: the scenario recipe's value
    int t_data = -1; ///< -1: the scenario recipe's value
    std::string checkpoint; ///< checkpoint spec; empty = none
    int checkpoint_cost = 1;
    std::vector<std::string> specs;
};

std::vector<Regime> golden_regimes() {
    std::vector<Regime> rs;
    Regime passive;
    passive.name = "passive";
    passive.plan_class = vs::SchedulerClass::Passive;
    passive.specs = {"mct", "emct", "random"};
    rs.push_back(passive);

    Regime proactive;
    proactive.name = "proactive";
    proactive.plan_class = vs::SchedulerClass::Proactive;
    proactive.specs = {"emct", "lw", "random1w"};
    rs.push_back(proactive);

    // Replica cap 2 with fewer tasks than UP workers: every round plans
    // replicas, and completions cancel staged and computing siblings.
    Regime replicas;
    replicas.name = "replicas";
    replicas.tasks = 3;
    replicas.specs = {"emct*", "ud*", "random"};
    rs.push_back(replicas);

    // daly checkpoints at cost 4: multi-slot uploads queue in the same
    // bandwidth FIFO as program and data downloads (ncom 2 keeps it busy).
    Regime daly;
    daly.name = "daly4";
    daly.wmin = 4;
    daly.ncom = 2;
    daly.checkpoint = "daly";
    daly.checkpoint_cost = 4;
    daly.specs = {"emct", "mct", "random1w"};
    rs.push_back(daly);

    Regime free_prog;
    free_prog.name = "tprog0";
    free_prog.t_prog = 0;
    free_prog.specs = {"mct", "emct*", "random"};
    rs.push_back(free_prog);

    Regime free_data;
    free_data.name = "tdata0";
    free_data.t_data = 0;
    free_data.specs = {"mct", "emct*", "random"};
    rs.push_back(free_data);

    // One RNG draw per select: any change in select order shows.
    Regime random;
    random.name = "random";
    random.ncom = 1;
    random.specs = {"random", "random1w", "random3"};
    rs.push_back(random);
    return rs;
}

/// Serializes every golden regime's runs — full RunMetrics JSON, the exact
/// action trace, the timeline, and digests of the event log and of the
/// Perfetto trace export — for one stepping core.
std::string regime_run_blob(bool event_core) {
    std::string blob;
    for (const Regime& r : golden_regimes()) {
        auto sc = vt::small_scenario(91, r.p, r.tasks);
        sc.ncom = r.ncom;
        sc.wmin = r.wmin;
        auto rs = ve::realize(sc);
        if (r.t_prog >= 0) rs.platform.t_prog = r.t_prog;
        if (r.t_data >= 0) rs.platform.t_data = r.t_data;
        const auto policy =
            r.checkpoint.empty()
                ? nullptr
                : volsched::ckpt::CheckpointRegistry::instance().make(
                      r.checkpoint);
        for (const auto& spec : r.specs) {
            vs::ActionTrace trace;
            vs::Timeline timeline;
            vs::EventLog events;
            volsched::obs::TraceRecorder tracer;
            vs::EngineConfig cfg =
                vt::audited_config(2, r.tasks, r.replica_cap);
            cfg.plan_class = r.plan_class;
            cfg.event_driven = event_core;
            cfg.checkpoint = policy.get();
            cfg.checkpoint_cost = r.checkpoint_cost;
            cfg.observers = {&trace, &timeline, &events, &tracer};
            const auto sim =
                vs::Simulation::from_chains(rs.platform, rs.chains, cfg, 5);
            const auto sched = vt::make_scheduler(spec);
            const auto m = sim.run(*sched);
            std::ostringstream csv;
            events.write_csv(csv);
            blob += "== " + r.name + "/" + spec + " ==\n";
            blob += vs::metrics_to_json(m);
            blob += "\n-- actions --\n";
            blob += trace_to_text(trace);
            blob += "-- timeline --\n";
            blob += timeline_to_text(timeline);
            blob += "-- events: " + digest(csv.str()) + "\n";
            blob += "-- trace: " + digest(tracer.json()) + "\n";
        }
    }
    return blob;
}

} // namespace

// Pins the regimes the greedy goldens miss — Passive and Proactive plan
// classes, replicas with fewer tasks than workers, daly uploads at cost 4
// sharing the transfer FIFO, zero-cost program and data transfers, and the
// RNG-drawing random specs — so an engine refactor that moves any decision,
// RNG draw, counter, recorded slot, event or trace span shows as a diff.
TEST(SeedDeterminism, EngineRegimesMatchGoldenEventCore) {
    EXPECT_TRUE(vt::matches_golden(regime_run_blob(/*event_core=*/true),
                                   "seed_determinism_regimes_event.txt"));
}

TEST(SeedDeterminism, EngineRegimesMatchGoldenSlotCore) {
    EXPECT_TRUE(vt::matches_golden(regime_run_blob(/*event_core=*/false),
                                   "seed_determinism_regimes_slot.txt"));
}
