#pragma once
/// \file fixtures.hpp
/// Shared deterministic test fixtures: canonical 3-state chains with known
/// closed-form properties, the Section 7 platform recipe used by the engine
/// tests, audited engine configs, small scenario builders, and tolerance
/// helpers for Markov expectations.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "markov/chain.hpp"
#include "sim/engine.hpp"
#include "sim/platform.hpp"
#include "sim/scheduler.hpp"

namespace volsched::test {

// -------------------------------------------------------------------------
// Canonical chains.
// -------------------------------------------------------------------------

/// Chain that never leaves UP (P_uu = 1): reliability formulas collapse.
markov::MarkovChain always_up_chain();

/// Chain with frequent RECLAIMED detours but no crashes.
markov::MarkovChain flaky_chain(double p_ur);

/// Chain with a real crash probability.
markov::MarkovChain crashy_chain(double p_ud);

/// The paper's generation shape with a fixed self-transition probability:
/// P(x,x) = self and the remaining mass split evenly over the other states.
markov::MarkovChain self_split_chain(double self);

/// Fully general chain from the two free entries of each row (third entry is
/// the complement).  Rows: UP = (uu, ur, .), RECLAIMED = (ru, rr, .),
/// DOWN = (du, dr, .).
markov::MarkovChain chain3(double uu, double ur, double ru, double rr,
                           double du = 0.5, double dr = 0.25);

// -------------------------------------------------------------------------
// Platforms + engine configs.
// -------------------------------------------------------------------------

/// A platform plus one availability chain per processor, drawn with the
/// Section 7 recipe (w_q ~ U[wmin, 10*wmin], t_data = wmin,
/// t_prog = 5*wmin) from a single deterministic stream.
struct RecipeSetup {
    sim::Platform platform;
    std::vector<markov::MarkovChain> chains;
};

RecipeSetup recipe_setup(int p, int ncom, int wmin, std::uint64_t seed);

/// Engine config with invariant auditing on — the default for engine tests.
sim::EngineConfig audited_config(int iterations, int tasks,
                                 int replica_cap = 2,
                                 long long max_slots = 2'000'000);

/// A deliberately small Section 7 scenario (p processors, n tasks) that
/// keeps engine tests fast while exercising the full realize() path.
exp::Scenario small_scenario(std::uint64_t seed, int p = 8, int tasks = 6);

// -------------------------------------------------------------------------
// Schedulers.
// -------------------------------------------------------------------------

/// Constructs a heuristic from a registry spec string ("emct*",
/// "thr50:mct", ...) via api::SchedulerRegistry::instance().make(spec),
/// which throws std::invalid_argument (with a did-you-mean suggestion) for
/// an unknown name.
std::unique_ptr<sim::Scheduler> make_scheduler(const std::string& spec);

// -------------------------------------------------------------------------
// Hand-built scheduling rounds (no engine).
// -------------------------------------------------------------------------

/// One assignment-round snapshot: p UP processors holding the program with
/// free buffers, plus optional per-processor belief chains.  Used by the
/// heuristic unit tests to probe Scheduler::select in isolation.
struct ViewFixture {
    sim::Platform platform;
    std::vector<sim::ProcView> procs;
    std::vector<markov::MarkovChain> chains;
    sim::SchedView view;

    ViewFixture(int p, int ncom, int t_prog, int t_data, int w = 1);

    /// Construct directly from belief chains (one processor per chain) with
    /// the default small-platform parameters of the random-heuristic tests.
    explicit ViewFixture(std::vector<markov::MarkovChain> cs, int w = 2,
                         int ncom = 2, int t_prog = 5, int t_data = 1);

    // view/procs hold pointers and spans into this object; copying or moving
    // a finalized fixture would leave them dangling.
    ViewFixture(const ViewFixture&) = delete;
    ViewFixture& operator=(const ViewFixture&) = delete;

    /// Attach per-proc belief chains (the fixture keeps them alive).
    void set_chains(std::vector<markov::MarkovChain> cs);

    /// Builds the SchedView over the current procs and returns it.
    sim::SchedView& finalize(int nactive = 0, int remaining = 1);
};

/// Identity eligibility: {0, 1, ..., p-1}.
std::vector<sim::ProcId> all_procs(int p);

/// Empirical per-processor selection counts over `n` single-instance rounds
/// with every processor eligible, under a fixed RNG seed.
std::vector<long long> pick_counts(ViewFixture& fixture, sim::Scheduler& sched,
                                   int n, std::uint64_t rng_seed);

// -------------------------------------------------------------------------
// Tolerance helpers.
// -------------------------------------------------------------------------

/// Default absolute tolerance for comparing Markov closed forms against
/// simulation / power-iteration estimates.
inline constexpr double kMarkovTol = 1e-9;

/// EXPECT_TRUE(near_rel(a, b, 0.01)): |a-b| <= tol * max(|a|, |b|, 1).
::testing::AssertionResult near_rel(double actual, double expected,
                                    double rel_tol);

/// True when two transition matrices are bit-identical (determinism checks).
bool same_matrix(const markov::TransitionMatrix& a,
                 const markov::TransitionMatrix& b);

/// Pearson chi-squared statistic of observed counts against expected
/// probabilities (sizes must match; probabilities need not be normalized).
double chi_squared(std::span<const long long> observed,
                   std::span<const double> expected_probs);

} // namespace volsched::test
