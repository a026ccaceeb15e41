/// Event-driven engine-core equality suite: the event core
/// (EngineConfig::event_driven, the default) must produce bit-identical
/// RunMetrics — every counter, not just the action traces — plus identical
/// timelines and action traces versus the reference slot loop, across
/// Markov, semi-Markov, and checkpointed regimes, with audit mode
/// re-verifying every elided range.  A seeded sweep extends the equality to
/// every scheduler class, replica cap, checkpoint policy, bandwidth and
/// all-dead start, and checks the dead-stretch back-fill both cores share
/// against a slot loop that steps dead slots through the real phases.
/// Also pins the slot-0 dead-stretch fix: a realization that starts with
/// every worker absent is skipped in full, including slot 0, by both cores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/simulation_builder.hpp"
#include "ckpt/registry.hpp"
#include "core/factory.hpp"
#include "exp/scenario.hpp"
#include "markov/availability.hpp"
#include "markov/realized_trace.hpp"
#include "sim/action_trace.hpp"
#include "sim/engine.hpp"
#include "sim/events.hpp"
#include "sim/timeline.hpp"
#include "support/fixtures.hpp"
#include "trace/replay.hpp"
#include "trace/semi_markov.hpp"
#include "trace/sojourn.hpp"
#include "util/rng.hpp"

namespace vc = volsched::core;
namespace vk = volsched::ckpt;
namespace vm = volsched::markov;
namespace vs = volsched::sim;
namespace vt = volsched::test;

namespace {

/// One run's full observable output.
struct Outcome {
    vs::RunMetrics m;
    vs::Timeline timeline;
    vs::ActionTrace actions;
};

/// Every RunMetrics field must agree except the elision counters noted:
/// slots_elided differs by construction (zero under the slot loop), and
/// dead_slots_skipped is asserted equal separately because both cores
/// account fully-absent stretches the same way.
void expect_same_metrics(const vs::RunMetrics& ev, const vs::RunMetrics& sl,
                         const std::string& label) {
    EXPECT_EQ(ev.makespan, sl.makespan) << label;
    EXPECT_EQ(ev.completed, sl.completed) << label;
    EXPECT_EQ(ev.iterations_completed, sl.iterations_completed) << label;
    EXPECT_EQ(ev.tasks_completed, sl.tasks_completed) << label;
    EXPECT_EQ(ev.replicas_committed, sl.replicas_committed) << label;
    EXPECT_EQ(ev.replica_wins, sl.replica_wins) << label;
    EXPECT_EQ(ev.transfer_slots, sl.transfer_slots) << label;
    EXPECT_EQ(ev.wasted_transfer_slots, sl.wasted_transfer_slots) << label;
    EXPECT_EQ(ev.compute_slots, sl.compute_slots) << label;
    EXPECT_EQ(ev.wasted_compute_slots, sl.wasted_compute_slots) << label;
    EXPECT_EQ(ev.checkpoint_slots, sl.checkpoint_slots) << label;
    EXPECT_EQ(ev.checkpoints_committed, sl.checkpoints_committed) << label;
    EXPECT_EQ(ev.recoveries, sl.recoveries) << label;
    EXPECT_EQ(ev.saved_compute_slots, sl.saved_compute_slots) << label;
    EXPECT_EQ(ev.down_events, sl.down_events) << label;
    EXPECT_EQ(ev.dead_slots_skipped, sl.dead_slots_skipped) << label;
    EXPECT_EQ(ev.proactive_cancellations, sl.proactive_cancellations)
        << label;
    EXPECT_EQ(ev.cache_hits, sl.cache_hits) << label;
    EXPECT_EQ(ev.cache_misses, sl.cache_misses) << label;
    EXPECT_EQ(ev.cache_invalidations, sl.cache_invalidations) << label;
    EXPECT_EQ(ev.iteration_ends, sl.iteration_ends) << label;
    ASSERT_EQ(ev.per_proc.size(), sl.per_proc.size()) << label;
    for (std::size_t q = 0; q < ev.per_proc.size(); ++q) {
        const auto& a = ev.per_proc[q];
        const auto& b = sl.per_proc[q];
        EXPECT_EQ(a.tasks_completed, b.tasks_completed) << label << " q" << q;
        EXPECT_EQ(a.compute_slots, b.compute_slots) << label << " q" << q;
        EXPECT_EQ(a.transfer_slots, b.transfer_slots) << label << " q" << q;
        EXPECT_EQ(a.up_slots, b.up_slots) << label << " q" << q;
        EXPECT_EQ(a.down_events, b.down_events) << label << " q" << q;
    }
}

void expect_same_timeline(const vs::Timeline& a, const vs::Timeline& b,
                          const std::string& label) {
    ASSERT_EQ(a.procs(), b.procs()) << label;
    ASSERT_EQ(a.slots(), b.slots()) << label;
    for (int q = 0; q < a.procs(); ++q)
        for (long long s = 0; s < a.slots(); ++s)
            if (a.at(q, s) != b.at(q, s))
                FAIL() << label << ": timeline diverges at proc " << q
                       << " slot " << s << " ('" << a.at(q, s) << "' vs '"
                       << b.at(q, s) << "')";
}

void expect_same_actions(const vs::ActionTrace& a, const vs::ActionTrace& b,
                         const std::string& label) {
    ASSERT_EQ(a.procs(), b.procs()) << label;
    ASSERT_EQ(a.slots(), b.slots()) << label;
    for (int q = 0; q < a.procs(); ++q) {
        const auto& ra = a.row(q);
        const auto& rb = b.row(q);
        for (std::size_t t = 0; t < ra.size(); ++t)
            if (ra[t].recv != rb[t].recv || ra[t].compute != rb[t].compute)
                FAIL() << label << ": action trace diverges at proc " << q
                       << " slot " << t;
    }
}

/// Runs `heuristic` over `chains` under both stepping cores (audit on) and
/// checks full-output equality; returns the event core's elided-slot count.
long long run_both_and_compare(const vs::Platform& pf,
                               const std::vector<vm::MarkovChain>& chains,
                               vs::EngineConfig cfg, std::uint64_t seed,
                               const std::string& heuristic,
                               const std::string& label) {
    Outcome out[2];
    for (int event = 0; event < 2; ++event) {
        vs::EngineConfig c = cfg;
        c.event_driven = (event == 1);
        c.observers = {&out[event].timeline, &out[event].actions};
        const auto sim = vs::Simulation::from_chains(pf, chains, c, seed);
        const auto sched = vt::make_scheduler(heuristic);
        out[event].m = sim.run(*sched);
    }
    EXPECT_EQ(out[0].m.slots_elided, 0)
        << label << ": slot loop must not elide";
    expect_same_metrics(out[1].m, out[0].m, label);
    expect_same_timeline(out[1].timeline, out[0].timeline, label);
    expect_same_actions(out[1].actions, out[0].actions, label);
    EXPECT_GE(out[1].m.slots_elided, out[1].m.dead_slots_skipped) << label;
    return out[1].m.slots_elided;
}

} // namespace

TEST(EventEngine, MarkovRegimeMatchesSlotLoopExactly) {
    vs::Platform pf;
    pf.w = {2, 3, 4};
    pf.ncom = 2;
    pf.t_prog = 3;
    pf.t_data = 1;
    const std::vector<vm::MarkovChain> chains(
        3, vt::chain3(0.35, 0.05, 0.10, 0.30, 0.15, 0.05));
    long long elided_total = 0;
    for (const auto& name : vc::greedy_heuristic_names())
        elided_total += run_both_and_compare(pf, chains,
                                             vt::audited_config(2, 4), 17,
                                             name, "markov/" + name);
    EXPECT_GT(elided_total, 0)
        << "event core never elided a slot; the regime is too dense for "
           "the test to be meaningful";
}

TEST(EventEngine, SemiMarkovRegimeMatchesSlotLoopExactly) {
    // Heavy-tailed sojourns: multi-hundred-slot absences plus long UP
    // bursts, the regime the closed-form advancement targets.
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
    const std::vector<vm::MarkovChain> beliefs(
        kProcs, vm::MarkovChain(
                    SemiMarkovAvailability(params).equivalent_markov_matrix()));

    long long elided_total = 0;
    for (const auto& name : vc::greedy_heuristic_names()) {
        Outcome out[2];
        for (int event = 0; event < 2; ++event) {
            std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
            for (int q = 0; q < kProcs; ++q)
                models.push_back(
                    std::make_unique<SemiMarkovAvailability>(params));
            vs::EngineConfig cfg = vt::audited_config(2, 4);
            auto sim = vs::Simulation::builder()
                           .platform(pf)
                           .models(std::move(models))
                           .beliefs(beliefs)
                           .config(cfg)
                           .observe(&out[event].timeline)
                           .observe(&out[event].actions)
                           .event_driven(event == 1)
                           .seed(23)
                           .build();
            const auto sched = vt::make_scheduler(name);
            out[event].m = sim.run(*sched);
        }
        const std::string label = "semi-markov/" + name;
        EXPECT_EQ(out[0].m.slots_elided, 0) << label;
        expect_same_metrics(out[1].m, out[0].m, label);
        expect_same_timeline(out[1].timeline, out[0].timeline, label);
        expect_same_actions(out[1].actions, out[0].actions, label);
        elided_total += out[1].m.slots_elided;
    }
    EXPECT_GT(elided_total, 0)
        << "event core never elided a slot on the semi-Markov fleet";
}

TEST(EventEngine, CheckpointedRegimesMatchSlotLoopExactly) {
    // Checkpoint policies add upload events and per-slot policy decisions;
    // the quiet-horizon hook must never let the event core skip a slot in
    // which a policy would have fired (audit mode replays should_checkpoint
    // over every elided range).
    vs::Platform pf;
    pf.w = {4, 6, 8};
    pf.ncom = 2;
    pf.t_prog = 3;
    pf.t_data = 1;
    const std::vector<vm::MarkovChain> chains(
        3, vt::chain3(0.55, 0.05, 0.20, 0.30, 0.25, 0.05));
    auto& reg = vk::CheckpointRegistry::instance();
    long long elided_total = 0;
    long long committed_total = 0;
    for (const std::string spec : {"periodic2", "daly", "risk25"}) {
        const auto policy = reg.make(spec);
        for (const std::string name : {"mct", "emct"}) {
            vs::EngineConfig cfg = vt::audited_config(2, 4);
            cfg.checkpoint = policy.get();
            cfg.checkpoint_cost = 2;
            const long long elided = run_both_and_compare(
                pf, chains, cfg, 29, name, spec + "/" + name);
            elided_total += elided;
            vs::EngineConfig probe = vt::audited_config(2, 4);
            probe.checkpoint = policy.get();
            probe.checkpoint_cost = 2;
            const auto sim =
                vs::Simulation::from_chains(pf, chains, probe, 29);
            const auto sched = vt::make_scheduler(name);
            committed_total += sim.run(*sched).checkpoints_committed;
        }
    }
    EXPECT_GT(elided_total, 0)
        << "event core never elided a slot in the checkpointed regimes";
    EXPECT_GT(committed_total, 0)
        << "no checkpoint ever committed; the regime does not exercise the "
           "policies";
}

TEST(EventEngine, InitialDeadStretchIsSkippedInFullByBothCores) {
    // Satellite bugfix pin: a realization that starts all-DOWN used to walk
    // slot 0 (the `t > 0` guard in the skip branch), skipping only 299 of
    // 300 dead slots.  Both cores must now account the full stretch while
    // staying bit-identical to an unskipped run.
    constexpr int kDead = 300;
    volsched::trace::RecordedTrace tr;
    for (int i = 0; i < kDead; ++i)
        tr.states.push_back(vm::ProcState::Down);
    for (int i = 0; i < 5000; ++i)
        tr.states.push_back(vm::ProcState::Up);
    const auto pf = vs::Platform::homogeneous(2, /*w_all=*/4, /*ncom=*/2,
                                              /*t_prog=*/3, /*t_data=*/1);

    // Three arms: event core, slot loop + skip, slot loop unskipped.
    Outcome out[3];
    for (int arm = 0; arm < 3; ++arm) {
        vs::EngineConfig cfg = vt::audited_config(2, 3);
        cfg.skip_dead_slots = arm == 1;
        auto sim = vs::Simulation::builder()
                       .platform(pf)
                       .replay({tr, tr})
                       .config(cfg)
                       .observe(&out[arm].timeline)
                       .observe(&out[arm].actions)
                       .event_driven(arm == 0)
                       .seed(11)
                       .build();
        const auto sched = vt::make_scheduler("mct");
        out[arm].m = sim.run(*sched);
    }
    // The skip-count assertion: the WHOLE stretch, slot 0 included.
    EXPECT_EQ(out[0].m.dead_slots_skipped, kDead) << "event core";
    EXPECT_EQ(out[1].m.dead_slots_skipped, kDead) << "slot loop + skip";
    EXPECT_EQ(out[2].m.dead_slots_skipped, 0) << "unskipped reference";
    EXPECT_GE(out[0].m.slots_elided, kDead);
    EXPECT_EQ(out[0].m.down_events, 2);
    for (int arm = 0; arm < 2; ++arm) {
        const std::string label =
            arm == 0 ? "event-vs-reference" : "skip-vs-reference";
        vs::RunMetrics ref = out[2].m;
        ref.dead_slots_skipped = out[arm].m.dead_slots_skipped; // compared
        expect_same_metrics(out[arm].m, ref, label);            // above
        expect_same_timeline(out[arm].timeline, out[2].timeline, label);
        expect_same_actions(out[arm].actions, out[2].actions, label);
    }
}

namespace {

/// One configuration of the differential sweep below.  `seed` derives
/// everything the axes leave open — platform, chains, task count, spec,
/// checkpoint cost, dead-prefix lengths — so a failure's label is a
/// complete reproducer.
struct SweepConfig {
    std::uint64_t seed = 0;
    vs::SchedulerClass plan_class = vs::SchedulerClass::Dynamic;
    int replica_cap = 0;
    std::string checkpoint = "none"; ///< policy spec; "none" attaches none
    int ncom = 1;
    bool dead_start = false;
};

std::string describe(const SweepConfig& c) {
    const char* cls = c.plan_class == vs::SchedulerClass::Dynamic ? "dynamic"
                      : c.plan_class == vs::SchedulerClass::Passive
                          ? "passive"
                          : "proactive";
    std::ostringstream os;
    os << "sweep config seed=0x" << std::hex << c.seed << std::dec
       << " class=" << cls << " cap=" << c.replica_cap
       << " ckpt=" << c.checkpoint << " ncom=" << c.ncom
       << (c.dead_start ? " dead-start" : "");
    return os.str();
}

/// Tallies that show the sweep reached the paths it is meant to cover.
struct SweepCoverage {
    long long elided = 0;
    long long dead_skipped = 0;
    long long backfilled = 0; ///< dead slots the skip-on slot loop elided
    long long replicas = 0;
    long long checkpoints = 0;
    long long proactive = 0;
    long long cut = 0; ///< runs that ended at the horizon
};

constexpr int kSweepProcs = 4;

/// The 21 specs: the 17 paper heuristics and the four extensions.
const std::vector<std::string>& sweep_specs() {
    static const std::vector<std::string> specs = [] {
        auto names = vc::all_heuristic_names();
        const auto& ext = vc::extension_heuristic_names();
        names.insert(names.end(), ext.begin(), ext.end());
        return names;
    }();
    return specs;
}

/// Worker q's UP slots over [0, end), counted from the RLE segments of the
/// realization rather than by the engine.
long long realized_up_slots(vm::RealizedTraces& traces, int q,
                            long long end) {
    traces.ensure(end);
    long long up = 0;
    for (const auto& seg : traces.trace(q).segments()) {
        if (seg.begin >= end) break;
        if (seg.state == vm::ProcState::Up)
            up += std::min(seg.end, end) - seg.begin;
    }
    return up;
}

/// Runs one sweep config with audit on in three arms — the slot loop with
/// its dead-stretch skip, the event core, and the slot loop with the skip
/// off — and checks full metrics, timeline and action-trace equality of
/// the first arm with each of the other two.  The third arm is the one
/// independent check of fast_forward's dead path: it steps every dead slot
/// through the real phases.  Every arm's per-worker UP time must equal the
/// realization's UP slots up to the makespan.
void run_sweep_config(const SweepConfig& c, SweepCoverage& cov) {
    volsched::util::Rng rng(c.seed);
    vs::Platform pf;
    for (int q = 0; q < kSweepProcs; ++q)
        pf.w.push_back(static_cast<int>(rng.uniform_int(2, 12)));
    pf.ncom = c.ncom;
    pf.t_prog = static_cast<int>(rng.uniform_int(0, 4));
    pf.t_data = static_cast<int>(rng.uniform_int(0, 2));
    std::vector<vm::MarkovChain> chains;
    for (int q = 0; q < kSweepProcs; ++q) {
        const double uu = rng.uniform(0.80, 0.97);
        const double ur = rng.uniform(0.0, 0.6) * (1.0 - uu);
        const double ru = rng.uniform(0.10, 0.50);
        const double rr = rng.uniform(0.0, 0.9) * (1.0 - ru);
        const double du = rng.uniform(0.10, 0.60);
        const double dr = rng.uniform(0.0, 0.3) * (1.0 - du);
        chains.push_back(vt::chain3(uu, ur, ru, rr, du, dr));
    }
    const int tasks = static_cast<int>(rng.uniform_int(1, kSweepProcs + 2));
    const auto& specs = sweep_specs();
    const std::string& spec = specs[rng.uniform_int(0, specs.size() - 1)];
    const auto policy =
        c.checkpoint == "none"
            ? nullptr
            : vk::CheckpointRegistry::instance().make(c.checkpoint);
    vs::EngineConfig cfg = vt::audited_config(2, tasks, c.replica_cap,
                                              /*max_slots=*/200'000);
    cfg.plan_class = c.plan_class;
    cfg.checkpoint = policy.get();
    cfg.checkpoint_cost = static_cast<int>(rng.uniform_int(0, 4));
    // All-dead starts: every worker opens DOWN or RECLAIMED for a while,
    // then follows its chain (the recorded trace loops past its end).
    std::vector<volsched::trace::RecordedTrace> traces;
    if (c.dead_start) {
        for (int q = 0; q < kSweepProcs; ++q) {
            const auto absent = rng.bernoulli(0.5) ? vm::ProcState::Down
                                                   : vm::ProcState::Reclaimed;
            volsched::trace::RecordedTrace tr;
            tr.states.assign(rng.uniform_int(1, 40), absent);
            const auto tail = volsched::trace::record(
                vm::MarkovAvailability(chains[q]), 3000, rng);
            tr.states.insert(tr.states.end(), tail.states.begin(),
                             tail.states.end());
            traces.push_back(std::move(tr));
        }
    }
    // One run in four is cut by a short horizon, so the UP time the run
    // settles at that exit is checked too.
    if (rng.bernoulli(0.25))
        cfg.max_slots = static_cast<long long>(rng.uniform_int(1, 300));
    const std::string label = describe(c) + " spec=" + spec;
    static const char* const kArms[3] = {" (slot loop)", " (event core)",
                                         " (unskipped slot loop)"};
    Outcome out[3];
    for (int arm = 0; arm < 3; ++arm) {
        auto builder = vs::Simulation::builder();
        builder.platform(pf);
        if (c.dead_start)
            builder.replay(traces).beliefs(chains);
        else
            builder.markov(chains);
        vs::EngineConfig arm_cfg = cfg;
        arm_cfg.skip_dead_slots = arm != 2;
        auto sim = builder.config(arm_cfg)
                       .observe(&out[arm].timeline)
                       .observe(&out[arm].actions)
                       .event_driven(arm == 1)
                       .seed(c.seed)
                       .build();
        const auto sched = vt::make_scheduler(spec);
        try {
            out[arm].m = sim.run(*sched);
        } catch (const std::exception& e) {
            FAIL() << label << kArms[arm] << ": " << e.what();
        }
        const auto traces = sim.realization();
        for (int q = 0; q < kSweepProcs; ++q)
            EXPECT_EQ(out[arm].m.per_proc[q].up_slots,
                      realized_up_slots(*traces, q, out[arm].m.makespan))
                << label << kArms[arm] << " q" << q;
    }
    EXPECT_EQ(out[0].m.slots_elided, 0) << label;
    expect_same_metrics(out[1].m, out[0].m, label);
    expect_same_timeline(out[1].timeline, out[0].timeline, label);
    expect_same_actions(out[1].actions, out[0].actions, label);
    // The skip changes only its own counter: copy it across, as the
    // initial-dead-stretch test does, and compare everything else.
    const std::string unskipped = label + kArms[2];
    EXPECT_EQ(out[2].m.dead_slots_skipped, 0) << unskipped;
    vs::RunMetrics stepped = out[2].m;
    stepped.dead_slots_skipped = out[0].m.dead_slots_skipped;
    expect_same_metrics(out[0].m, stepped, unskipped);
    expect_same_timeline(out[0].timeline, out[2].timeline, unskipped);
    expect_same_actions(out[0].actions, out[2].actions, unskipped);
    cov.elided += out[1].m.slots_elided;
    cov.backfilled += out[0].m.dead_slots_skipped;
    if (c.dead_start) cov.dead_skipped += out[1].m.dead_slots_skipped;
    cov.replicas += out[1].m.replicas_committed;
    cov.checkpoints += out[1].m.checkpoints_committed;
    cov.proactive += out[1].m.proactive_cancellations;
    cov.cut += out[1].m.completed ? 0 : 1;
}

} // namespace

TEST(EventEngine, SeededSweepMatchesSlotLoopAcrossConfigSpace) {
    // Every plan class x replica cap 0..2 x checkpoint policy x ncom 1..p x
    // Markov-or-all-dead start, each with its own seed-derived platform,
    // chains, checkpoint cost, spec (one of all 21) and, for one run in
    // four, a short horizon.  A failure prints the config's label, a
    // one-line reproducer.
    constexpr std::uint64_t kMasterSeed = 0x5745455053ULL; // "SWEEP"
    SweepCoverage cov;
    std::uint64_t index = 0;
    for (const auto cls :
         {vs::SchedulerClass::Dynamic, vs::SchedulerClass::Passive,
          vs::SchedulerClass::Proactive})
        for (int cap = 0; cap <= 2; ++cap)
            for (const char* ckpt : {"none", "periodic3", "periodic8", "daly",
                                     "risk10", "risk40"})
                for (int ncom = 1; ncom <= kSweepProcs; ++ncom)
                    for (const bool dead : {false, true}) {
                        SweepConfig c;
                        c.seed = volsched::util::mix_seed(kMasterSeed,
                                                          index++);
                        c.plan_class = cls;
                        c.replica_cap = cap;
                        c.checkpoint = ckpt;
                        c.ncom = ncom;
                        c.dead_start = dead;
                        run_sweep_config(c, cov);
                    }
    EXPECT_GT(cov.elided, 0) << "the event core never elided a slot";
    EXPECT_GT(cov.dead_skipped, 0) << "no dead start was skipped";
    EXPECT_GT(cov.backfilled, 0)
        << "the slot loop never back-filled a dead stretch";
    EXPECT_GT(cov.replicas, 0) << "no replica was ever committed";
    EXPECT_GT(cov.checkpoints, 0) << "no checkpoint was ever committed";
    EXPECT_GT(cov.proactive, 0) << "the proactive class never un-enrolled";
    EXPECT_GT(cov.cut, 0) << "no run ended at the horizon";
}

TEST(EventEngine, SiblingCancellationPromotesStagedTaskInTheSameSlot) {
    // The completion pass can cancel a replica *computing* on another
    // worker; when that worker holds a data-complete staged task, the
    // freed compute slot promotes it in the same slot.  Nothing else marks
    // such a worker for end_of_slot, so this pins that the cancellation
    // does (audit mode cross-checks the due list every slot) and that both
    // cores agree.  The scan asserts the pattern really occurs: a
    // ReplicaCancelled and a ComputeStart on one worker in one slot, with
    // no completion of its own there.
    int hits = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const auto rs = volsched::exp::realize(vt::small_scenario(seed, 6, 3));
        for (const std::string spec : {"mct", "emct*"}) {
            vs::EventLog logs[2];
            Outcome out[2];
            for (int event = 0; event < 2; ++event) {
                vs::EngineConfig cfg = vt::audited_config(3, 3);
                cfg.event_driven = (event == 1);
                cfg.observers = {&logs[event], &out[event].timeline,
                                 &out[event].actions};
                const auto sim = vs::Simulation::from_chains(
                    rs.platform, rs.chains, cfg, seed);
                const auto sched = vt::make_scheduler(spec);
                out[event].m = sim.run(*sched);
            }
            const std::string label =
                "seed " + std::to_string(seed) + "/" + spec;
            expect_same_metrics(out[1].m, out[0].m, label);
            expect_same_actions(out[1].actions, out[0].actions, label);
            const auto events = logs[1].events();
            ASSERT_EQ(events.size(), logs[0].events().size()) << label;
            for (std::size_t i = 0; i < events.size(); ++i) {
                const vs::Event& a = events[i];
                const vs::Event& b = logs[0].events()[i];
                ASSERT_TRUE(a.slot == b.slot && a.kind == b.kind &&
                            a.proc == b.proc && a.logical == b.logical)
                    << label << ": event logs diverge at " << i;
            }
            for (std::size_t i = 0; i < events.size(); ++i) {
                if (events[i].kind != vs::EventKind::ReplicaCancelled)
                    continue;
                bool promoted = false;
                bool own_completion = false;
                for (const vs::Event& e : events) {
                    if (e.slot != events[i].slot || e.proc != events[i].proc)
                        continue;
                    promoted |= e.kind == vs::EventKind::ComputeStart;
                    own_completion |= e.kind == vs::EventKind::TaskComplete ||
                                      e.kind == vs::EventKind::DataComplete;
                }
                if (promoted && !own_completion) ++hits;
            }
        }
    }
    EXPECT_GT(hits, 0) << "no sibling cancellation freed a compute slot for "
                          "a staged task; the regime no longer covers the "
                          "case";
}
