/// Property-style sweeps over the heuristic scoring functions: invariants
/// that must hold for any recipe chain and any processor configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/ct.hpp"
#include "core/factory.hpp"
#include "core/greedy_sched.hpp"
#include "markov/expectation.hpp"
#include "markov/gen.hpp"
#include "sim/scheduler.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace vc = volsched::core;
namespace vt = volsched::test;
namespace vs = volsched::sim;
namespace vm = volsched::markov;

namespace {

struct Fixture {
    vs::Platform platform;
    std::vector<vs::ProcView> procs;
    std::vector<vm::MarkovChain> chains;
    vs::SchedView view;

    Fixture(int p, std::uint64_t seed) {
        volsched::util::Rng rng(seed);
        platform.ncom = 1 + static_cast<int>(rng.uniform_int(0, 4));
        platform.t_prog = 1 + static_cast<int>(rng.uniform_int(0, 19));
        platform.t_data = 1 + static_cast<int>(rng.uniform_int(0, 9));
        platform.w.resize(static_cast<std::size_t>(p));
        procs.resize(static_cast<std::size_t>(p));
        chains.reserve(static_cast<std::size_t>(p));
        for (int q = 0; q < p; ++q) {
            chains.push_back(vm::generate_chain(rng));
            platform.w[q] = 1 + static_cast<int>(rng.uniform_int(0, 19));
            auto& pv = procs[q];
            pv.state = vm::ProcState::Up;
            pv.has_program = rng.bernoulli(0.5);
            pv.buffer_free = true;
            pv.w = platform.w[q];
            pv.delay = static_cast<int>(rng.uniform_int(0, 40));
        }
        for (int q = 0; q < p; ++q) procs[q].belief = &chains[q];
        view.platform = &platform;
        view.procs = procs;
        view.slot = 0;
        view.nactive = static_cast<int>(rng.uniform_int(0, p));
        view.remaining_tasks = 3;
    }
};

std::vector<vs::ProcId> all_procs(int p) {
    std::vector<vs::ProcId> out(static_cast<std::size_t>(p));
    for (int q = 0; q < p; ++q) out[q] = q;
    return out;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Section 6.2 weight of a random-family spec ("random", "random2w", ...)
/// for one worker: 1 for uninformed workers and plain "random", divided by
/// w_q for the w-variants.
double reference_weight(const std::string& spec, const vs::ProcView& pv) {
    double w = 1.0;
    if (pv.belief != nullptr && spec.size() > 6) {
        const auto& m = pv.belief->matrix();
        const auto& pi = pv.belief->stationary();
        switch (spec[6]) {
            case '1': w = m.p_uu(); break;
            case '2': w = vm::p_plus(m); break;
            case '3': w = pi.pi_u; break;
            case '4': w = 1.0 - pi.pi_d; break;
            default: ADD_FAILURE() << "unknown random spec " << spec;
        }
    }
    if (spec.back() == 'w') w /= static_cast<double>(pv.w);
    return w;
}

/// Scalar reference for select(), independent of the scoring kernel, the
/// belief pins and the expectation cache: one worker at a time, straight
/// from ct.hpp and the markov:: free functions.
///  - greedy specs: argmin of the heuristic's own score() over
///    ct_estimate, ties within 1e-12 broken toward the smaller CT;
///  - hybrid: argmin of E(CT) / P_UD(E(CT)) over ct_plain;
///  - random family: the Section 6.2 weights through weighted_index, with
///    the uniform_int fallback when every weight is zero;
///  - thr<p>:<inner>: drop informed workers with pi_u < p/100 (all of
///    them kept when that empties the set), then the inner spec.
vs::ProcId reference_select(const std::string& spec, const vs::SchedView& view,
                            std::span<const vs::ProcId> eligible,
                            std::span<const int> nq,
                            volsched::util::Rng& rng) {
    if (spec.rfind("thr", 0) == 0) {
        const auto colon = spec.find(':');
        const double threshold =
            static_cast<double>(std::stoi(spec.substr(3, colon - 3))) / 100.0;
        std::vector<vs::ProcId> kept;
        for (const vs::ProcId q : eligible) {
            const auto* belief = view.procs[q].belief;
            if (belief == nullptr || belief->stationary().pi_u >= threshold)
                kept.push_back(q);
        }
        const std::string inner = spec.substr(colon + 1);
        if (kept.empty())
            return reference_select(inner, view, eligible, nq, rng);
        return reference_select(inner, view, kept, nq, rng);
    }
    if (spec.rfind("random", 0) == 0) {
        std::vector<double> weights;
        for (const vs::ProcId q : eligible)
            weights.push_back(reference_weight(spec, view.procs[q]));
        const std::size_t idx =
            rng.weighted_index(weights.data(), weights.size());
        if (idx >= eligible.size())
            return eligible[rng.uniform_int(0, eligible.size() - 1)];
        return eligible[idx];
    }
    vs::ProcId best = eligible[0];
    double best_score = kInf;
    if (spec == "hybrid") {
        for (const vs::ProcId q : eligible) {
            const double ct = vc::ct_plain(view, q, nq[q] + 1);
            double score = ct;
            if (const auto* belief = view.procs[q].belief) {
                const auto& m = belief->matrix();
                const auto& pi = belief->stationary();
                const double expected = vm::e_workload(m, ct);
                const double p_survive =
                    std::isinf(expected)
                        ? 0.0
                        : vm::p_ud_approx(m, pi.pi_u, pi.pi_r, expected);
                score = p_survive > 0.0 ? expected / p_survive : kInf;
            }
            if (score < best_score) {
                best_score = score;
                best = q;
            }
        }
        return best;
    }
    const auto sched = vt::make_scheduler(spec);
    const auto& greedy = dynamic_cast<const vc::GreedyScheduler&>(*sched);
    const bool starred = spec.back() == '*';
    double best_ct = kInf;
    for (const vs::ProcId q : eligible) {
        const double ct =
            vc::ct_estimate(view, q, nq[q] + 1, nq[q] > 0, starred);
        const double s = greedy.score(view, q, ct);
        if (s < best_score - 1e-12 ||
            (std::fabs(s - best_score) <= 1e-12 && ct < best_ct)) {
            best = q;
            best_score = s;
            best_ct = ct;
        }
    }
    return best;
}

} // namespace

class HeuristicProperty : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicProperty, CtIsMonotoneInQueueLengthAndDelay) {
    Fixture f(6, static_cast<std::uint64_t>(GetParam()));
    for (int q = 0; q < 6; ++q) {
        double prev = 0.0;
        for (int n = 1; n <= 5; ++n) {
            const double ct = vc::ct_plain(f.view, q, n);
            EXPECT_GT(ct, prev);
            prev = ct;
        }
        // The corrected estimate never undercuts the plain one (the factor
        // is ceil(.) >= 1).
        EXPECT_GE(vc::ct_corrected(f.view, q, 1, false),
                  vc::ct_plain(f.view, q, 1));
    }
}

TEST_P(HeuristicProperty, EveryGreedyChoiceIsEligible) {
    Fixture f(6, static_cast<std::uint64_t>(GetParam()) + 50);
    const std::vector<vs::ProcId> eligible = {1, 3, 4};
    std::vector<int> nq(6, 0);
    volsched::util::Rng rng(9);
    for (const auto& name : vc::all_heuristic_names()) {
        auto sched = vt::make_scheduler(name);
        const auto pick = sched->select(f.view, eligible, nq, rng);
        EXPECT_TRUE(pick == 1 || pick == 3 || pick == 4) << name;
    }
}

TEST_P(HeuristicProperty, SingleEligibleProcessorIsAlwaysChosen) {
    Fixture f(4, static_cast<std::uint64_t>(GetParam()) + 100);
    const std::vector<vs::ProcId> eligible = {2};
    std::vector<int> nq(4, 0);
    volsched::util::Rng rng(10);
    for (const auto& name : vc::all_heuristic_names()) {
        auto sched = vt::make_scheduler(name);
        EXPECT_EQ(sched->select(f.view, eligible, nq, rng), 2) << name;
    }
}

TEST_P(HeuristicProperty, EmctNeverRanksBelowItsOwnCt) {
    // E(W) >= W pointwise, so the EMCT score of any processor dominates its
    // MCT score — the expectation only adds RECLAIMED detours.
    Fixture f(6, static_cast<std::uint64_t>(GetParam()) + 200);
    for (int q = 0; q < 6; ++q) {
        const double ct = vc::ct_plain(f.view, q, 1);
        const double e = vm::e_workload(f.chains[q].matrix(), ct);
        EXPECT_GE(e, ct);
    }
}

TEST_P(HeuristicProperty, MctPrefersStrictlyDominatingProcessor) {
    // If one processor has smaller delay AND smaller w, MCT must take it.
    Fixture f(2, static_cast<std::uint64_t>(GetParam()) + 300);
    f.procs[0].delay = 10;
    f.procs[0].w = 8;
    f.procs[1].delay = 2;
    f.procs[1].w = 3;
    f.view.procs = f.procs;
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(11);
    auto sched = vt::make_scheduler("mct");
    EXPECT_EQ(sched->select(f.view, all_procs(2), nq, rng), 1);
}

TEST_P(HeuristicProperty, InformedFamiliesAgreeOnIdenticalProcessors) {
    // With identical chains, speeds and delays, every deterministic greedy
    // heuristic must tie-break to the lowest index.
    Fixture f(5, static_cast<std::uint64_t>(GetParam()) + 400);
    volsched::util::Rng rng(12);
    const auto chain = vm::generate_chain(rng);
    for (int q = 0; q < 5; ++q) {
        f.chains[q] = chain;
        f.procs[q].w = 4;
        f.procs[q].delay = 3;
        f.procs[q].has_program = true;
    }
    for (int q = 0; q < 5; ++q) f.procs[q].belief = &f.chains[q];
    f.view.procs = f.procs;
    std::vector<int> nq(5, 0);
    for (const auto& name : vc::greedy_heuristic_names()) {
        auto sched = vt::make_scheduler(name);
        EXPECT_EQ(sched->select(f.view, all_procs(5), nq, rng), 0) << name;
    }
}

TEST_P(HeuristicProperty, ScoringKernelMatchesScalarReferenceBitExactly) {
    // select()'s kernel (Eq. (1)/(2) from the view's delays and the pinned
    // columns, scores through pinned cache handles), run with a recording
    // trace, must score every candidate in eligible order exactly as the
    // scalar reference does — ct_estimate and the heuristic's own score(),
    // straight from the markov:: free functions — to the last bit,
    // uninformed workers included; recording must not change the pick.
    Fixture f(8, static_cast<std::uint64_t>(GetParam()) + 500);
    f.procs[2].belief = nullptr;
    f.procs[6].belief = nullptr;
    f.view.procs = f.procs;
    const std::vector<int> nq = {0, 3, 1, 0, 2, 0, 5, 1};
    const std::vector<vs::ProcId> eligible = {5, 0, 7, 2, 4, 1, 6, 3};
    auto names = vc::greedy_heuristic_names();
    names.push_back("hybrid");
    for (const auto& name : names) {
        auto sched = vt::make_scheduler(name);
        auto* greedy = dynamic_cast<vc::GreedyScheduler*>(sched.get());
        ASSERT_NE(greedy, nullptr) << name;
        const bool starred = !name.empty() && name.back() == '*';
        greedy->begin_round(f.view);
        std::vector<vc::GreedyScheduler::Scored> trace;
        const auto pick = greedy->select_traced(f.view, eligible, nq, trace);
        ASSERT_EQ(trace.size(), eligible.size()) << name;
        for (std::size_t i = 0; i < eligible.size(); ++i) {
            const auto q = eligible[i];
            const double ct =
                vc::ct_estimate(f.view, q, nq[q] + 1, nq[q] > 0, starred);
            EXPECT_EQ(trace[i].q, q) << name << " candidate " << i;
            EXPECT_EQ(trace[i].ct, ct) << name << " ct of proc " << q;
            EXPECT_EQ(trace[i].score, greedy->score(f.view, q, ct))
                << name << " score of proc " << q;
        }
        volsched::util::Rng rng(1);
        EXPECT_EQ(sched->select(f.view, eligible, nq, rng), pick) << name;
    }
}

TEST_P(HeuristicProperty, DecisionsInvariantUnderWorkerPermutation) {
    // Relabeling the workers (shuffling their insertion order into the
    // per-round arrays) while presenting the same candidates in the same
    // sequence must relabel the decision and nothing else — scoring reads
    // per-worker state only, never array positions.
    constexpr int p = 7;
    const auto seed = static_cast<std::uint64_t>(GetParam());
    Fixture f(p, seed + 600);
    Fixture g(p, seed + 600); // identical platform draw, rewired below
    std::vector<vs::ProcId> perm(p);
    std::iota(perm.begin(), perm.end(), 0);
    volsched::util::Rng shuffle_rng(seed + 601);
    for (int i = p - 1; i > 0; --i)
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[shuffle_rng.uniform_int(
                      0, static_cast<std::uint64_t>(i))]);
    for (int q = 0; q < p; ++q) {
        const auto to = static_cast<std::size_t>(perm[q]);
        g.procs[to] = f.procs[q];
        g.chains[to] = f.chains[q];
        g.platform.w[to] = f.platform.w[q];
    }
    for (int q = 0; q < p; ++q) g.procs[q].belief = &g.chains[q];
    g.view.procs = g.procs;

    const auto eligible_f = all_procs(p);
    std::vector<vs::ProcId> eligible_g(eligible_f.size());
    for (std::size_t i = 0; i < eligible_f.size(); ++i)
        eligible_g[i] = perm[static_cast<std::size_t>(eligible_f[i])];
    const std::vector<int> nq_f = {0, 2, 0, 1, 4, 0, 1};
    std::vector<int> nq_g(p, 0);
    for (int q = 0; q < p; ++q)
        nq_g[static_cast<std::size_t>(perm[q])] = nq_f[q];

    auto names = vc::all_heuristic_names();
    const auto& ext = vc::extension_heuristic_names();
    names.insert(names.end(), ext.begin(), ext.end());
    for (const auto& name : names) {
        auto sched_f = vt::make_scheduler(name);
        auto sched_g = vt::make_scheduler(name);
        volsched::util::Rng rng_f(77);
        volsched::util::Rng rng_g(77);
        sched_f->begin_round(f.view);
        sched_g->begin_round(g.view);
        const auto pick_f = sched_f->select(f.view, eligible_f, nq_f, rng_f);
        const auto pick_g = sched_g->select(g.view, eligible_g, nq_g, rng_g);
        EXPECT_EQ(pick_g, perm[static_cast<std::size_t>(pick_f)]) << name;
    }
}

TEST_P(HeuristicProperty, SelectMatchesScalarReference) {
    // Every spec's select() (the scoring kernel, pinned cache handles,
    // per-run random weights) must pick what reference_select picks,
    // pick after pick, and leave the RNG where the reference leaves it.
    // Workers 2 and 5 are uninformed (LW and UD score them 0, so CT breaks
    // the tie); workers 8 and 9 never come back UP, so their weights are
    // all 0 and their informed scores infinite.  Each pick is charged to
    // its worker's queue as the engine does, so greedy picks move around,
    // and the random family draws 128 times per spec.  The second arm
    // replays the rounds the way the engine presents one run: a fixed
    // nonzero SchedView::run, with every worker's delay changing between
    // rounds (the one per-worker input a run lets move).
    constexpr int p = 10;
    Fixture f(p, static_cast<std::uint64_t>(GetParam()) + 700);
    const vm::MarkovChain dead(vm::TransitionMatrix(
        {{{0.0, 0.0, 1.0}, {0.0, 0.0, 1.0}, {0.0, 0.0, 1.0}}}));
    f.chains[8] = dead;
    f.chains[9] = dead;
    f.procs[2].belief = nullptr;
    f.procs[5].belief = nullptr;
    f.view.procs = f.procs;
    // The last round offers only the dead workers: the random family's
    // uniform fallback.
    const std::vector<std::vector<vs::ProcId>> rounds = {
        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {0, 1, 3, 4, 5, 6, 7},
        {1, 2, 3, 4, 5, 8},             {0, 2, 4, 6, 8},
        {1, 3, 5, 7, 9},                {0, 1, 2, 5},
        {3, 4, 5, 6, 7, 8, 9},          {8, 9}};
    auto names = vc::all_heuristic_names();
    const auto& ext = vc::extension_heuristic_names();
    names.insert(names.end(), ext.begin(), ext.end());
    ASSERT_EQ(names.size(), 21u);
    std::vector<int> base_delay(p);
    for (int q = 0; q < p; ++q) base_delay[q] = f.procs[q].delay;
    for (const std::uint64_t run : {std::uint64_t{0}, std::uint64_t{0x5eed}}) {
        f.view.run = run;
        for (const auto& name : names) {
            auto sched = vt::make_scheduler(name);
            volsched::util::Rng rng(5);
            volsched::util::Rng ref_rng(5);
            bool diverged = false;
            for (std::size_t r = 0; r < rounds.size() && !diverged; ++r) {
                const int shift = 17 * static_cast<int>(r);
                if (run != 0)
                    for (int q = 0; q < p; ++q)
                        f.procs[q].delay =
                            (base_delay[q] + shift * (q + 1)) % 53;
                std::vector<int> nq(p, 0);
                sched->begin_round(f.view);
                for (int pick = 0; pick < 16; ++pick) {
                    const auto got = sched->select(f.view, rounds[r], nq, rng);
                    const auto want = reference_select(name, f.view, rounds[r],
                                                       nq, ref_rng);
                    if (got != want) {
                        ADD_FAILURE() << name << " (run " << run << "): round "
                                      << r << " pick " << pick << " chose "
                                      << got << ", reference " << want;
                        diverged = true;
                        break;
                    }
                    ++nq[static_cast<std::size_t>(got)];
                }
            }
            if (!diverged) {
                EXPECT_EQ(rng(), ref_rng())
                    << name << " (run " << run << "): RNG streams diverged";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicProperty, ::testing::Range(0, 10));

TEST(HeuristicNames, FactoryOrderMatchesPaperTable2) {
    const auto& names = vc::all_heuristic_names();
    // The paper's Table 2 lists the EMCT family first and plain random last.
    EXPECT_EQ(names.front(), "emct");
    EXPECT_EQ(names.back(), "random");
}
