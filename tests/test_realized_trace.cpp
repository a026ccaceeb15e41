/// Realized-trace layer (markov/realized_trace.hpp): the property the whole
/// engine refactor rests on is that RLE replay is **bit-identical** to live
/// per-slot model sampling for every AvailabilityModel — Markov (both
/// InitialState modes), recorded-trace replay (both end policies), and
/// semi-Markov — and that realizations are a pure function of the seed, not
/// of how (or how often) the trace is queried.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/simulation_builder.hpp"
#include "exp/scenario.hpp"
#include "markov/availability.hpp"
#include "markov/realized_trace.hpp"
#include "support/fixtures.hpp"
#include "trace/replay.hpp"
#include "trace/semi_markov.hpp"
#include "util/rng.hpp"

namespace vm = volsched::markov;
namespace vs = volsched::sim;
namespace ve = volsched::exp;
namespace vtr = volsched::trace;
namespace vt = volsched::test;
namespace vu = volsched::util;

namespace {

constexpr long long kSlots = 4000;
constexpr std::uint64_t kSeed = 20260730;

/// The engine's historical sampling loop: one initial_state draw, then one
/// next_state draw per slot, on the processor's private stream.
std::vector<vm::ProcState> live_sample(const vm::AvailabilityModel& prototype,
                                       std::uint64_t stream_seed,
                                       long long slots) {
    std::vector<vm::ProcState> out;
    out.reserve(static_cast<std::size_t>(slots));
    const auto model = prototype.clone();
    vu::Rng rng(stream_seed);
    vm::ProcState s = model->initial_state(rng);
    out.push_back(s);
    for (long long t = 1; t < slots; ++t) {
        s = model->next_state(s, rng);
        out.push_back(s);
    }
    return out;
}

/// One model of every kind the simulator supports, labelled for diagnostics.
std::vector<std::pair<std::string, std::unique_ptr<vm::AvailabilityModel>>>
all_model_kinds() {
    std::vector<std::pair<std::string, std::unique_ptr<vm::AvailabilityModel>>>
        models;
    models.emplace_back("markov/always-up-start",
                        std::make_unique<vm::MarkovAvailability>(
                            vt::flaky_chain(0.3), vm::InitialState::AlwaysUp));
    models.emplace_back(
        "markov/stationary-start",
        std::make_unique<vm::MarkovAvailability>(
            vt::crashy_chain(0.2), vm::InitialState::Stationary));
    models.emplace_back("markov/self-split",
                        std::make_unique<vm::MarkovAvailability>(
                            vt::self_split_chain(0.9)));

    vu::Rng record_rng(7);
    const auto recorded = vtr::record(
        vm::MarkovAvailability(vt::crashy_chain(0.15)), 257, record_rng);
    models.emplace_back("replay/loop",
                        std::make_unique<vtr::ReplayAvailability>(
                            recorded, vtr::ReplayAvailability::EndPolicy::Loop));
    models.emplace_back(
        "replay/hold-last",
        std::make_unique<vtr::ReplayAvailability>(
            recorded, vtr::ReplayAvailability::EndPolicy::HoldLast));

    models.emplace_back("semi-markov/weibull",
                        std::make_unique<vtr::SemiMarkovAvailability>(
                            vtr::desktop_grid_params(40.0)));
    models.emplace_back("semi-markov/lognormal",
                        std::make_unique<vtr::SemiMarkovAvailability>(
                            vtr::desktop_grid_params_lognormal(25.0)));
    return models;
}

/// Structural RLE invariants: contiguous coverage from slot 0, non-empty
/// segments, adjacent segments hold different states.
void expect_well_formed(const vm::RealizedTrace& trace,
                        const std::string& label) {
    const auto& segs = trace.segments();
    ASSERT_FALSE(segs.empty()) << label;
    long long expected_begin = 0;
    for (std::size_t i = 0; i < segs.size(); ++i) {
        EXPECT_EQ(segs[i].begin, expected_begin) << label << " segment " << i;
        EXPECT_GE(segs[i].length(), 1) << label << " segment " << i;
        if (i > 0) {
            EXPECT_NE(segs[i].state, segs[i - 1].state)
                << label << ": adjacent segments must differ (RLE maximality)";
        }
        expected_begin = segs[i].end;
    }
    EXPECT_EQ(expected_begin, trace.realized()) << label;
}

} // namespace

TEST(RealizedTrace, ReplayIsBitIdenticalToLiveSamplingForEveryModelKind) {
    const auto models = all_model_kinds();
    for (std::size_t q = 0; q < models.size(); ++q) {
        const auto& [label, model] = models[q];
        const std::uint64_t stream =
            vu::mix_seed(kSeed, vm::kAvailabilityStream, q);
        const auto live = live_sample(*model, stream, kSlots);

        vm::RealizedTrace trace(model->clone(), stream);
        vm::TraceCursor cursor(trace);
        for (long long t = 0; t < kSlots; ++t) {
            ASSERT_EQ(cursor.state_at(t), live[static_cast<std::size_t>(t)])
                << label << " diverges from live sampling at slot " << t;
        }
        expect_well_formed(trace, label);
    }
}

TEST(RealizedTrace, RealizedTracesDeriveTheEnginePerProcessorStreams) {
    // RealizedTraces must seed processor q's stream exactly as the engine
    // always has: mix_seed(seed, kAvailabilityStream, q).
    auto kinds = all_model_kinds();
    std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
    std::vector<std::string> labels;
    for (auto& [label, model] : kinds) {
        labels.push_back(label);
        models.push_back(std::move(model));
    }
    vm::RealizedTraces traces(models, kSeed);
    ASSERT_EQ(traces.size(), static_cast<int>(models.size()));
    EXPECT_EQ(traces.seed(), kSeed);
    for (int q = 0; q < traces.size(); ++q) {
        const auto live = live_sample(
            *models[static_cast<std::size_t>(q)],
            vu::mix_seed(kSeed, vm::kAvailabilityStream,
                         static_cast<std::uint64_t>(q)),
            kSlots);
        vm::TraceCursor cursor(traces.trace(q));
        for (long long t = 0; t < kSlots; ++t) {
            ASSERT_EQ(cursor.state_at(t), live[static_cast<std::size_t>(t)])
                << labels[static_cast<std::size_t>(q)] << " at slot " << t;
        }
    }
}

TEST(RealizedTrace, RealizationIsIndependentOfTheQueryPattern) {
    // Driving one trace slot by slot and another via next_change_at() hops
    // (plus a third realized eagerly in one go) must materialize identical
    // segments: lazy chunked growth changes *when* slots are sampled, never
    // their values.
    for (const auto& [label, model] : all_model_kinds()) {
        vm::RealizedTrace by_slot(model->clone(), 42);
        vm::RealizedTrace by_hops(model->clone(), 42);
        vm::RealizedTrace eager(model->clone(), 42);

        vm::TraceCursor slot_cursor(by_slot);
        for (long long t = 0; t < kSlots; ++t) (void)slot_cursor.state_at(t);

        vm::TraceCursor hop_cursor(by_hops);
        long long t = 0;
        while (t < kSlots) {
            const long long change = hop_cursor.next_change_at(t, kSlots);
            ASSERT_GT(change, t) << label;
            if (change < kSlots) {
                ASSERT_NE(hop_cursor.state_at(change), by_hops.state_at(t))
                    << label << ": next_change_at(" << t
                    << ") returned a slot with an unchanged state";
            }
            t = change;
        }

        eager.ensure(kSlots);

        const auto common = std::min(
            {by_slot.realized(), by_hops.realized(), eager.realized()});
        ASSERT_GE(common, kSlots) << label;
        for (long long s = 0; s < kSlots; ++s) {
            ASSERT_EQ(by_slot.state_at(s), by_hops.state_at(s))
                << label << " at slot " << s;
            ASSERT_EQ(by_slot.state_at(s), eager.state_at(s))
                << label << " at slot " << s;
        }
        expect_well_formed(by_slot, label);
        expect_well_formed(by_hops, label);
        expect_well_formed(eager, label);
    }
}

TEST(RealizedTrace, ManyCursorsShareOneTrace) {
    // The 19-heuristic pattern: one shared trace, one cursor per run; later
    // cursors replay slots the first cursor already forced into existence.
    vm::RealizedTrace trace(
        std::make_unique<vm::MarkovAvailability>(vt::crashy_chain(0.1)), 99);
    std::vector<vm::ProcState> first;
    {
        vm::TraceCursor cursor(trace);
        for (long long t = 0; t < 1000; ++t)
            first.push_back(cursor.state_at(t));
    }
    for (int replay = 0; replay < 3; ++replay) {
        vm::TraceCursor cursor(trace);
        for (long long t = 0; t < 1000; ++t)
            ASSERT_EQ(cursor.state_at(t), first[static_cast<std::size_t>(t)])
                << "replay cursor " << replay << " diverged at slot " << t;
    }
}

TEST(RealizedTrace, NextChangeAtRespectsTheLimit) {
    // An always-UP model never changes state: next_change_at must cap its
    // probing at `limit` instead of sampling forever.
    vm::RealizedTrace trace(
        std::make_unique<vm::MarkovAvailability>(vt::always_up_chain()), 5);
    vm::TraceCursor cursor(trace);
    EXPECT_EQ(cursor.next_change_at(0, 512), 512);
    EXPECT_LE(trace.realized(), 1024); // chunked growth may overshoot, bounded
    EXPECT_EQ(trace.segments().size(), 1u);
}

TEST(RealizedTrace, SimulationSharesOneRealizationAcrossRuns) {
    // Simulation::realization() is the cache every run replays: repeated
    // runs must not advance any RNG state (bit-identical metrics), and the
    // snapshot handle must be stable.
    const auto sc = vt::small_scenario(2026);
    const auto rs = ve::realize(sc);
    const auto sim = vs::Simulation::from_chains(
        rs.platform, rs.chains, vt::audited_config(2, sc.tasks), 11);
    const auto traces = sim.realization();
    ASSERT_NE(traces, nullptr);
    EXPECT_EQ(traces.get(), sim.realization().get())
        << "realization() must hand out the one cached snapshot";
    EXPECT_EQ(traces->size(), rs.platform.size());

    const auto sched = vt::make_scheduler("emct");
    const auto m1 = sim.run(*sched);
    const auto m2 = sim.run(*sched);
    EXPECT_EQ(m1.makespan, m2.makespan);
    EXPECT_EQ(m1.iteration_ends, m2.iteration_ends);
    EXPECT_EQ(m1.down_events, m2.down_events);
}

TEST(RealizedTrace, BuilderRealizedAttachesAndValidatesSnapshots) {
    const auto sc = vt::small_scenario(314);
    const auto rs = ve::realize(sc);
    const auto cfg = vt::audited_config(2, sc.tasks);
    const auto sched = vt::make_scheduler("mct*");

    // Baseline: private realization.
    const auto base = vs::Simulation::from_chains(rs.platform, rs.chains,
                                                  cfg, 21);
    const auto expected = base.run(*sched);

    // Shared snapshot attached through the builder: same seed, same result.
    const auto shared = base.realization();
    const auto sim = vs::Simulation::builder()
                         .platform(rs.platform)
                         .markov(rs.chains)
                         .config(cfg)
                         .seed(21)
                         .realized(shared)
                         .build();
    const auto got = sim.run(*sched);
    EXPECT_EQ(got.makespan, expected.makespan);
    EXPECT_EQ(got.iteration_ends, expected.iteration_ends);
    EXPECT_EQ(sim.realization().get(), shared.get());

    // A snapshot from the wrong seed is rejected at build time.
    EXPECT_THROW(vs::Simulation::builder()
                     .platform(rs.platform)
                     .markov(rs.chains)
                     .config(cfg)
                     .seed(22)
                     .realized(shared)
                     .build(),
                 std::invalid_argument);
}
