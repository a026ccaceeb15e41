#include "markov/chain.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "markov/expectation.hpp"
#include "markov/gen.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace vm = volsched::markov;
namespace vt = volsched::test;
using vm::ProcState;

TEST(Chain, RejectsInvalidMatrix) {
    vm::TransitionMatrix bad({{{0.5, 0.0, 0.0},
                               {0.0, 1.0, 0.0},
                               {0.0, 0.0, 1.0}}});
    EXPECT_THROW(vm::MarkovChain{bad}, std::invalid_argument);
}

TEST(Chain, StationarySumsToOne) {
    volsched::util::Rng rng(3);
    const auto chain = vm::generate_chain(rng);
    const auto& pi = chain.stationary();
    EXPECT_NEAR(pi.pi_u + pi.pi_r + pi.pi_d, 1.0, 1e-12);
    EXPECT_GT(pi.pi_u, 0.0);
    EXPECT_GT(pi.pi_r, 0.0);
    EXPECT_GT(pi.pi_d, 0.0);
}

TEST(Chain, StationaryOfSymmetricChainIsUniform) {
    // Same self-probability and even splits for every state => uniform.
    vm::TransitionMatrix m({{{0.9, 0.05, 0.05},
                             {0.05, 0.9, 0.05},
                             {0.05, 0.05, 0.9}}});
    const vm::MarkovChain chain(m);
    EXPECT_NEAR(chain.stationary().pi_u, 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(chain.stationary().pi_r, 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(chain.stationary().pi_d, 1.0 / 3.0, 1e-12);
}

TEST(Chain, StationaryIsFixedPoint) {
    volsched::util::Rng rng(9);
    const auto chain = vm::generate_chain(rng);
    const auto& pi = chain.stationary();
    const auto& m = chain.matrix();
    const std::array<double, 3> cur = {pi.pi_u, pi.pi_r, pi.pi_d};
    for (int j = 0; j < 3; ++j) {
        double next = 0;
        for (int i = 0; i < 3; ++i)
            next += cur[i] * m(static_cast<ProcState>(i),
                               static_cast<ProcState>(j));
        EXPECT_NEAR(next, cur[j], 1e-10);
    }
}

TEST(Chain, StationaryIndexOperator) {
    volsched::util::Rng rng(11);
    const auto chain = vm::generate_chain(rng);
    const auto& pi = chain.stationary();
    EXPECT_DOUBLE_EQ(pi[ProcState::Up], pi.pi_u);
    EXPECT_DOUBLE_EQ(pi[ProcState::Reclaimed], pi.pi_r);
    EXPECT_DOUBLE_EQ(pi[ProcState::Down], pi.pi_d);
}

TEST(Chain, SamplingMatchesTransitionProbabilities) {
    volsched::util::Rng gen_rng(21);
    const auto chain = vm::generate_chain(gen_rng);
    volsched::util::Rng rng(22);
    std::array<int, 3> counts{};
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<int>(chain.sample_next(ProcState::Up, rng))];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), chain.matrix().p_uu(), 0.005);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), chain.matrix().p_ur(), 0.005);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), chain.matrix().p_ud(), 0.005);
}

TEST(Chain, LongRunOccupancyMatchesStationary) {
    volsched::util::Rng gen_rng(31);
    const auto chain = vm::generate_chain(gen_rng);
    volsched::util::Rng rng(32);
    std::array<long long, 3> counts{};
    ProcState s = ProcState::Up;
    const int n = 500000;
    for (int i = 0; i < n; ++i) {
        s = chain.sample_next(s, rng);
        ++counts[static_cast<int>(s)];
    }
    EXPECT_NEAR(counts[0] / static_cast<double>(n), chain.stationary().pi_u, 0.02);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), chain.stationary().pi_r, 0.02);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), chain.stationary().pi_d, 0.02);
}

TEST(Chain, SampleStationaryFrequencies) {
    volsched::util::Rng gen_rng(41);
    const auto chain = vm::generate_chain(gen_rng);
    volsched::util::Rng rng(42);
    std::array<int, 3> counts{};
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<int>(chain.sample_stationary(rng))];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), chain.stationary().pi_u, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), chain.stationary().pi_d, 0.01);
}

// Property sweep: direct linear solve == power iteration across many
// recipe-generated chains.
class StationaryProperty : public ::testing::TestWithParam<int> {};

TEST_P(StationaryProperty, DirectSolveMatchesPowerIteration) {
    volsched::util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
    const auto chain = vm::generate_chain(rng);
    const auto direct = chain.stationary();
    const auto iterated = chain.stationary_power_iteration();
    EXPECT_NEAR(direct.pi_u, iterated.pi_u, 1e-9);
    EXPECT_NEAR(direct.pi_r, iterated.pi_r, 1e-9);
    EXPECT_NEAR(direct.pi_d, iterated.pi_d, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StationaryProperty, ::testing::Range(0, 25));

TEST(Chain, GenerateChainsProducesIndependentChains) {
    volsched::util::Rng rng(55);
    const auto chains = vm::generate_chains(5, rng);
    ASSERT_EQ(chains.size(), 5u);
    // Overwhelmingly unlikely that two independently drawn chains match.
    EXPECT_NE(chains[0].matrix().p_uu(), chains[1].matrix().p_uu());
}

TEST(Chain, CachedMeanTimeToDownMatchesTheClosedFormBitForBit) {
    std::vector<vm::MarkovChain> chains = {
        vt::crashy_chain(0.05), vt::crashy_chain(1.0),
        vt::self_split_chain(0.9), vt::self_split_chain(0.0),
        vt::chain3(0.70, 0.10, 0.25, 0.30, 0.40, 0.20)};
    volsched::util::Rng rng(11);
    for (const auto& chain : vm::generate_chains(200, rng))
        chains.push_back(chain);
    for (const auto& chain : chains) {
        const double closed_form = vm::mean_time_to_down(chain.matrix());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(chain.mean_time_to_down()),
                  std::bit_cast<std::uint64_t>(closed_form))
            << chain.matrix().to_string();
        EXPECT_TRUE(std::isfinite(chain.mean_time_to_down()));
    }
}

TEST(Chain, AbsorbingChainsCacheAnInfiniteMeanTimeToDown) {
    // DOWN unreachable from UP: UP absorbing, RECLAIMED absorbing, or a
    // DOWN state no path enters.
    const vm::MarkovChain chains[] = {
        vt::always_up_chain(), vt::flaky_chain(0.3),
        vm::MarkovChain(vm::TransitionMatrix(
            {{{0.9, 0.1, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}}}))};
    for (const auto& chain : chains) {
        EXPECT_TRUE(std::isinf(chain.mean_time_to_down()))
            << chain.matrix().to_string();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(chain.mean_time_to_down()),
                  std::bit_cast<std::uint64_t>(
                      vm::mean_time_to_down(chain.matrix())));
    }
}
