/// Statistical verification of all nine random heuristics: each weight
/// definition of Section 6.2 is checked against the empirical pick
/// frequency on hand-constructed chains with known P_uu, P+, pi_u, pi_d,
/// and the uniform baseline is checked with a chi-squared goodness-of-fit
/// test under a fixed RNG.

#include <gtest/gtest.h>

#include <cmath>

#include "markov/expectation.hpp"
#include "sim/scheduler.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace vs = volsched::sim;
namespace vm = volsched::markov;
namespace vt = volsched::test;

namespace {

/// Empirical pick fraction of processor 0 over n draws.
double pick0_fraction(vt::ViewFixture& f, const std::string& heuristic,
                      int n = 60000) {
    const auto sched = vt::make_scheduler(heuristic);
    const auto counts = vt::pick_counts(f, *sched, n, 0xABCDEF);
    return static_cast<double>(counts[0]) / static_cast<double>(n);
}

} // namespace

TEST(RandomStats, Random1FollowsPuuRatio) {
    // P_uu: 0.6 vs 0.9 -> pick0 = 0.6 / 1.5 = 0.4.
    vt::ViewFixture f({vt::chain3(0.6, 0.3, 0.4, 0.5),
                       vt::chain3(0.9, 0.05, 0.4, 0.5)});
    EXPECT_NEAR(pick0_fraction(f, "random1"), 0.4, 0.01);
}

TEST(RandomStats, Random2FollowsPPlusRatio) {
    vt::ViewFixture f({vt::chain3(0.6, 0.3, 0.4, 0.5),
                       vt::chain3(0.9, 0.05, 0.4, 0.5)});
    const double p0 = vm::p_plus(f.chains[0].matrix());
    const double p1 = vm::p_plus(f.chains[1].matrix());
    EXPECT_NEAR(pick0_fraction(f, "random2"), p0 / (p0 + p1), 0.01);
}

TEST(RandomStats, Random3FollowsStationaryUpRatio) {
    vt::ViewFixture f({vt::chain3(0.6, 0.3, 0.4, 0.5),
                       vt::chain3(0.95, 0.03, 0.5, 0.45)});
    const double pi0 = f.chains[0].stationary().pi_u;
    const double pi1 = f.chains[1].stationary().pi_u;
    EXPECT_NEAR(pick0_fraction(f, "random3"), pi0 / (pi0 + pi1), 0.01);
}

TEST(RandomStats, Random4FollowsRarelyDownRatio) {
    vt::ViewFixture f({vt::chain3(0.6, 0.1, 0.4, 0.3),
                       vt::chain3(0.95, 0.03, 0.5, 0.45)});
    const double w0 = 1.0 - f.chains[0].stationary().pi_d;
    const double w1 = 1.0 - f.chains[1].stationary().pi_d;
    EXPECT_NEAR(pick0_fraction(f, "random4"), w0 / (w0 + w1), 0.01);
}

TEST(RandomStats, SpeedVariantsRescaleByW) {
    // Equal chains, speeds 2 vs 6: random1w picks P0 with odds (1/2):(1/6).
    vt::ViewFixture f({vt::chain3(0.9, 0.05, 0.4, 0.5),
                       vt::chain3(0.9, 0.05, 0.4, 0.5)});
    f.procs[0].w = 2;
    f.procs[1].w = 6;
    for (const char* name : {"random1w", "random2w", "random3w", "random4w"})
        EXPECT_NEAR(pick0_fraction(f, name), 0.75, 0.01) << name;
}

TEST(RandomStats, PlainVariantsIgnoreSpeed) {
    vt::ViewFixture f({vt::chain3(0.9, 0.05, 0.4, 0.5),
                       vt::chain3(0.9, 0.05, 0.4, 0.5)});
    f.procs[0].w = 2;
    f.procs[1].w = 6;
    for (const char* name : {"random1", "random2", "random3", "random4"})
        EXPECT_NEAR(pick0_fraction(f, name), 0.5, 0.01) << name;
}

TEST(RandomStats, UniformIgnoresEverything) {
    vt::ViewFixture f({vt::chain3(0.6, 0.3, 0.4, 0.5),
                       vt::chain3(0.99, 0.005, 0.5, 0.45)});
    f.procs[0].w = 1;
    f.procs[1].w = 20;
    EXPECT_NEAR(pick0_fraction(f, "random"), 0.5, 0.01);
}

TEST(RandomStats, ThreeWayWeightsNormalizeCorrectly) {
    vt::ViewFixture f({vt::chain3(0.5, 0.25, 0.4, 0.5),
                       vt::chain3(0.75, 0.12, 0.4, 0.5),
                       vt::chain3(0.95, 0.02, 0.4, 0.5)});
    // random1: expected pick0 = 0.5 / (0.5 + 0.75 + 0.95).
    EXPECT_NEAR(pick0_fraction(f, "random1"), 0.5 / 2.2, 0.01);
}

// ---------------------------------------------------------------------------
// Chi-squared goodness of fit for the uniform RandomScheduler.
// ---------------------------------------------------------------------------

TEST(RandomStats, UniformPassesChiSquaredOverEightProcs) {
    // Eight eligible processors with wildly different chains and speeds; the
    // uniform "random" heuristic must still pick each with probability 1/8.
    std::vector<vm::MarkovChain> chains;
    for (int q = 0; q < 8; ++q)
        chains.push_back(vt::self_split_chain(0.90 + 0.01 * q));
    vt::ViewFixture f(std::move(chains));
    for (std::size_t q = 0; q < f.procs.size(); ++q)
        f.procs[q].w = 1 + static_cast<int>(q);

    const auto sched = vt::make_scheduler("random");
    const int n = 80000;
    const auto counts = vt::pick_counts(f, *sched, n, 20240717);
    const std::vector<double> uniform(8, 1.0 / 8.0);
    const double stat = vt::chi_squared(counts, uniform);
    // 7 degrees of freedom: critical value 18.48 at alpha = 0.01.  The RNG
    // seed is fixed, so this is a regression test, not a flaky one.
    EXPECT_LT(stat, 18.48) << "chi-squared statistic " << stat;
    long long total = 0;
    for (const auto c : counts) total += c;
    EXPECT_EQ(total, n);
}

TEST(RandomStats, WeightedPicksPassChiSquaredAgainstTheirWeights) {
    // random1 over three processors must match the P_uu weight vector by the
    // same chi-squared criterion (2 dof, critical value 9.21 at alpha=0.01).
    vt::ViewFixture f({vt::chain3(0.5, 0.25, 0.4, 0.5),
                       vt::chain3(0.75, 0.12, 0.4, 0.5),
                       vt::chain3(0.95, 0.02, 0.4, 0.5)});
    const auto sched = vt::make_scheduler("random1");
    const auto counts = vt::pick_counts(f, *sched, 60000, 0xFEED);
    const std::vector<double> weights = {0.5, 0.75, 0.95};
    const double stat = vt::chi_squared(counts, weights);
    EXPECT_LT(stat, 9.21) << "chi-squared statistic " << stat;
}

TEST(RandomStats, ChiSquaredHelperRejectsDegenerateInput) {
    const std::vector<long long> counts = {1, 2};
    const std::vector<double> wrong_arity = {1.0};
    EXPECT_TRUE(std::isinf(vt::chi_squared(counts, wrong_arity)));
    const std::vector<long long> empty;
    const std::vector<double> empty_w;
    EXPECT_TRUE(std::isinf(vt::chi_squared(empty, empty_w)));
}
