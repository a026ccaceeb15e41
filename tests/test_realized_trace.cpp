/// Realized-trace layer (markov/realized_trace.hpp): the property the whole
/// engine refactor rests on is that RLE replay is **bit-identical** to live
/// per-slot model sampling for every AvailabilityModel — Markov (both
/// InitialState modes), recorded-trace replay (both end policies), and
/// semi-Markov — and that realizations are a pure function of the seed, not
/// of how (or how often) the trace is queried.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/simulation_builder.hpp"
#include "exp/scenario.hpp"
#include "markov/availability.hpp"
#include "markov/realized_trace.hpp"
#include "support/fixtures.hpp"
#include "support/golden.hpp"
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
    // Sojourns stretched 50x: most are longer than a growth chunk, so
    // chunked growth cuts them and the countdown must survive each cut.
    models.emplace_back("semi-markov/weibull-x50",
                        std::make_unique<vtr::SemiMarkovAvailability>(
                            vtr::desktop_grid_params(40.0 * 50)));
    return models;
}

/// The night-shift fleet (short UP bursts, long RECLAIMED evenings, very
/// long DOWN nights) with every sojourn mean multiplied by `scale`:
/// Weibull shapes, or lognormal sigmas of the same spread.
vtr::SemiMarkovParams night_shift(vtr::SojournDist::Kind kind, double scale) {
    using vtr::SojournDist;
    const auto dist = [kind](double spread, double mean) {
        return kind == SojournDist::Kind::Weibull
                   ? SojournDist::weibull_with_mean(spread, mean)
                   : SojournDist::lognormal_with_mean(spread, mean);
    };
    const bool weibull = kind == SojournDist::Kind::Weibull;
    vtr::SemiMarkovParams params;
    params.sojourn = {dist(weibull ? 0.7 : 1.2, 30.0 * scale),
                      dist(weibull ? 0.9 : 0.8, 80.0 * scale),
                      dist(weibull ? 0.8 : 1.0, 400.0 * scale)};
    params.jump[0] = {0.0, 0.5, 0.5};
    params.jump[1] = {0.5, 0.0, 0.5};
    params.jump[2] = {0.9, 0.1, 0.0};
    return params;
}

/// FNV-1a 64-bit over every segment's (state, begin, end).
std::uint64_t segments_digest(
    const std::vector<vm::RealizedTrace::Segment>& segs) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto& seg : segs) {
        mix(static_cast<std::uint64_t>(seg.state));
        mix(static_cast<std::uint64_t>(seg.begin));
        mix(static_cast<std::uint64_t>(seg.end));
    }
    return h;
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

TEST(RealizedTrace, AdvanceDrawsExactlyAsThePerSlotLoop) {
    // advance() must stop where per-slot next_state calls first change
    // state, and leave the RNG and the model's own state (a semi-Markov
    // countdown) exactly where that many calls leave them.
    const long long limits[] = {1, 2, 5, 64, 999, 1001, 4096, 30'000};
    for (const auto& [label, model] : all_model_kinds()) {
        const auto by_run = model->clone();
        const auto by_slot = model->clone();
        vu::Rng run_rng(5);
        vu::Rng slot_rng(5);
        vm::ProcState run_state = by_run->initial_state(run_rng);
        vm::ProcState slot_state = by_slot->initial_state(slot_rng);
        for (int call = 0; call < 400; ++call) {
            const long long limit = limits[call % std::size(limits)];
            const vm::ProcState before = run_state;
            const long long n = by_run->advance(run_state, limit, run_rng);
            ASSERT_GE(n, 1) << label << " call " << call;
            ASSERT_LE(n, limit) << label << " call " << call;
            for (long long k = 1; k < n; ++k) {
                slot_state = by_slot->next_state(slot_state, slot_rng);
                ASSERT_EQ(slot_state, before)
                    << label << " call " << call << ": advance ran past a "
                    << "state change at slot " << k;
            }
            slot_state = by_slot->next_state(slot_state, slot_rng);
            ASSERT_EQ(slot_state, run_state) << label << " call " << call;
            if (run_state == before) {
                ASSERT_EQ(n, limit) << label << " call " << call;
            }
            // One draw from each stream keeps them in lock step.
            ASSERT_EQ(run_rng(), slot_rng())
                << label << " call " << call << ": RNG streams diverged";
        }
    }
}

TEST(RealizedTrace, RecordedTracesEqualLiveSampling) {
    // trace::record() samples through advance() too.
    for (const auto& [label, model] : all_model_kinds()) {
        vu::Rng rng(kSeed);
        const auto recorded = vtr::record(*model, kSlots, rng);
        EXPECT_EQ(recorded.states, live_sample(*model, kSeed, kSlots))
            << label;
    }
}

TEST(RealizedTrace, SamplersRejectAModelThatBreaksTheAdvanceContract) {
    // A run-level call that samples no slot would stall ensure() and
    // trace::record() forever.
    class Stuck final : public vm::AvailabilityModel {
    public:
        vm::ProcState initial_state(vu::Rng&) override {
            return vm::ProcState::Up;
        }
        vm::ProcState next_state(vm::ProcState s, vu::Rng&) override {
            return s;
        }
        long long advance(vm::ProcState&, long long, vu::Rng&) override {
            return 0;
        }
        [[nodiscard]] std::unique_ptr<vm::AvailabilityModel>
        clone() const override {
            return std::make_unique<Stuck>();
        }
    };
    vm::RealizedTrace trace(std::make_unique<Stuck>(), 1);
    EXPECT_THROW(trace.ensure(10), std::logic_error);
    vu::Rng rng(1);
    EXPECT_THROW((void)vtr::record(Stuck{}, 10, rng), std::logic_error);
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

TEST(RealizedTrace, ChunkedGrowthCutsLongSojournsWithoutLosingTheCountdown) {
    // Grow each trace in uneven chunks, several of them past 1000 slots, so
    // that chunk ends fall inside long sojourns; every slot must still equal
    // live per-slot sampling.
    constexpr long long kLong = 50'000;
    const long long chunks[] = {1, 3, 1001, 64, 2500, 999, 1, 4097, 17, 12'000};
    for (const auto& [label, model] : all_model_kinds()) {
        const auto live = live_sample(*model, 77, kLong);
        vm::RealizedTrace trace(model->clone(), 77);
        std::vector<long long> cuts;
        for (std::size_t i = 0; trace.realized() < kLong; ++i) {
            const long long chunk = chunks[i % std::size(chunks)];
            trace.ensure(std::min(kLong, trace.realized() + chunk));
            cuts.push_back(trace.realized());
        }
        expect_well_formed(trace, label);
        for (long long t = 0; t < kLong; ++t)
            ASSERT_EQ(trace.state_at(t), live[static_cast<std::size_t>(t)])
                << label << " diverges from live sampling at slot " << t;

        if (label != "semi-markov/weibull-x50") continue;
        // The chunks really cut long sojourns: some cut splits a segment
        // longer than 1000 slots.
        int long_cuts = 0;
        for (const long long cut : cuts) {
            const auto& segs = trace.segments();
            const auto it = std::upper_bound(
                segs.begin(), segs.end(), cut - 1,
                [](long long slot, const vm::RealizedTrace::Segment& seg) {
                    return slot < seg.end;
                });
            if (it != segs.end() && it->end > cut && it->length() > 1000)
                ++long_cuts;
        }
        EXPECT_GT(long_cuts, 0) << label;
    }
}

TEST(RealizedTrace, SegmentsMatchTheCommittedGolden) {
    // Realizations are results: pin their segments, grown through horizons
    // that mostly end mid-sojourn, for short and 50x-stretched semi-Markov
    // sojourns, plus one Markov and one replay model.  Regenerate with
    // VOLSCHED_UPDATE_GOLDEN=1 only when a realization is meant to change.
    using vtr::SojournDist;
    vu::Rng record_rng(7);
    const auto recorded = vtr::record(
        vm::MarkovAvailability(vt::crashy_chain(0.15)), 257, record_rng);
    std::vector<std::pair<std::string, std::unique_ptr<vm::AvailabilityModel>>>
        models;
    models.emplace_back("weibull/mean40",
                        std::make_unique<vtr::SemiMarkovAvailability>(
                            vtr::desktop_grid_params(40.0)));
    models.emplace_back("lognormal/mean40",
                        std::make_unique<vtr::SemiMarkovAvailability>(
                            vtr::desktop_grid_params_lognormal(40.0)));
    models.emplace_back("weibull/night-shift-x50",
                        std::make_unique<vtr::SemiMarkovAvailability>(
                            night_shift(SojournDist::Kind::Weibull, 50.0)));
    models.emplace_back("lognormal/night-shift-x50",
                        std::make_unique<vtr::SemiMarkovAvailability>(
                            night_shift(SojournDist::Kind::LogNormal, 50.0)));
    models.emplace_back("markov/crashy",
                        std::make_unique<vm::MarkovAvailability>(
                            vt::crashy_chain(0.05)));
    models.emplace_back("replay/loop",
                        std::make_unique<vtr::ReplayAvailability>(
                            recorded, vtr::ReplayAvailability::EndPolicy::Loop));

    constexpr long long kHorizons[] = {997, 10'007, 60'013};
    std::ostringstream out;
    out << "# model seed horizon: segments, fnv1a over (state, begin, end), "
           "last segment, and whether the horizon cuts a sojourn\n";
    for (std::size_t m = 0; m < models.size(); ++m) {
        const auto& [label, model] = models[m];
        int mid_cuts = 0;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const std::uint64_t stream =
                vu::mix_seed(seed, vm::kAvailabilityStream, m);
            // A longer eager realization tells whether a horizon ends
            // mid-sojourn.
            vm::RealizedTrace longer(model->clone(), stream);
            longer.ensure(2 * kHorizons[std::size(kHorizons) - 1]);
            vm::RealizedTrace trace(model->clone(), stream);
            for (const long long horizon : kHorizons) {
                trace.ensure(horizon);
                ASSERT_EQ(trace.realized(), horizon) << label;
                expect_well_formed(trace, label);
                const auto& segs = trace.segments();
                const auto& last = segs.back();
                const bool mid = longer.state_at(horizon) == last.state;
                mid_cuts += mid ? 1 : 0;
                out << label << " seed=" << seed << " horizon=" << horizon
                    << ": segments=" << segs.size() << " fnv1a=" << std::hex
                    << segments_digest(segs) << std::dec
                    << " last=" << vm::state_code(last.state) << '['
                    << last.begin << ',' << last.end << ')'
                    << (mid ? " mid-sojourn" : " at-boundary") << '\n';
            }
        }
        const bool semi_markov = label.rfind("weibull/", 0) == 0 ||
                                 label.rfind("lognormal/", 0) == 0;
        if (semi_markov) {
            EXPECT_GT(mid_cuts, 0) << label << ": no horizon cut a sojourn";
        }
    }
    EXPECT_TRUE(vt::matches_golden(out.str(), "realized_trace_segments.txt"));
}
