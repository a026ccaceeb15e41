#include "support/fixtures.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "api/registry.hpp"
#include "markov/gen.hpp"
#include "util/rng.hpp"

namespace volsched::test {

markov::MarkovChain always_up_chain() {
    return markov::MarkovChain(markov::TransitionMatrix({{{1.0, 0.0, 0.0},
                                                          {1.0, 0.0, 0.0},
                                                          {1.0, 0.0, 0.0}}}));
}

markov::MarkovChain flaky_chain(double p_ur) {
    return markov::MarkovChain(markov::TransitionMatrix(
        {{{1.0 - p_ur, p_ur, 0.0}, {0.5, 0.5, 0.0}, {0.0, 0.0, 1.0}}}));
}

markov::MarkovChain crashy_chain(double p_ud) {
    return markov::MarkovChain(markov::TransitionMatrix({{{1.0 - p_ud, 0.0, p_ud},
                                                          {0.5, 0.5, 0.0},
                                                          {1.0, 0.0, 0.0}}}));
}

markov::MarkovChain self_split_chain(double self) {
    const double other = (1.0 - self) / 2.0;
    return markov::MarkovChain(
        markov::TransitionMatrix({{{self, other, other},
                                   {other, self, other},
                                   {other, other, self}}}));
}

markov::MarkovChain chain3(double uu, double ur, double ru, double rr,
                           double du, double dr) {
    const double ud = 1.0 - uu - ur;
    const double rd = 1.0 - ru - rr;
    const double dd = 1.0 - du - dr;
    return markov::MarkovChain(markov::TransitionMatrix(
        {{{uu, ur, ud}, {ru, rr, rd}, {du, dr, dd}}}));
}

RecipeSetup recipe_setup(int p, int ncom, int wmin, std::uint64_t seed) {
    RecipeSetup s;
    util::Rng rng(seed);
    s.platform.ncom = ncom;
    s.platform.t_data = wmin;
    s.platform.t_prog = 5 * wmin;
    for (int q = 0; q < p; ++q)
        s.platform.w.push_back(static_cast<int>(
            rng.uniform_int(wmin, static_cast<std::uint64_t>(10) * wmin)));
    s.chains = markov::generate_chains(static_cast<std::size_t>(p), rng);
    return s;
}

sim::EngineConfig audited_config(int iterations, int tasks, int replica_cap,
                                 long long max_slots) {
    sim::EngineConfig cfg;
    cfg.iterations = iterations;
    cfg.tasks_per_iteration = tasks;
    cfg.replica_cap = replica_cap;
    cfg.max_slots = max_slots;
    cfg.audit = true;
    return cfg;
}

exp::Scenario small_scenario(std::uint64_t seed, int p, int tasks) {
    exp::Scenario sc;
    sc.p = p;
    sc.tasks = tasks;
    sc.ncom = 3;
    sc.wmin = 2;
    sc.seed = seed;
    return sc;
}

std::unique_ptr<sim::Scheduler> make_scheduler(const std::string& spec) {
    return api::SchedulerRegistry::instance().make(spec);
}

ViewFixture::ViewFixture(int p, int ncom, int t_prog, int t_data, int w) {
    platform.w.assign(static_cast<std::size_t>(p), w);
    platform.ncom = ncom;
    platform.t_prog = t_prog;
    platform.t_data = t_data;
    procs.resize(static_cast<std::size_t>(p));
    for (auto& pv : procs) {
        pv.state = markov::ProcState::Up;
        pv.has_program = true;
        pv.buffer_free = true;
        pv.w = w;
        pv.delay = 0;
    }
}

ViewFixture::ViewFixture(std::vector<markov::MarkovChain> cs, int w, int ncom,
                         int t_prog, int t_data)
    : ViewFixture(static_cast<int>(cs.size()), ncom, t_prog, t_data, w) {
    set_chains(std::move(cs));
}

void ViewFixture::set_chains(std::vector<markov::MarkovChain> cs) {
    if (cs.size() != procs.size())
        throw std::invalid_argument(
            "ViewFixture::set_chains: chain count does not match processor "
            "count");
    chains = std::move(cs);
    for (std::size_t q = 0; q < procs.size(); ++q)
        procs[q].belief = &chains[q];
}

sim::SchedView& ViewFixture::finalize(int nactive, int remaining) {
    view.platform = &platform;
    view.procs = procs;
    view.slot = 0;
    view.nactive = nactive;
    view.remaining_tasks = remaining;
    return view;
}

std::vector<sim::ProcId> all_procs(int p) {
    std::vector<sim::ProcId> out(static_cast<std::size_t>(p));
    for (int q = 0; q < p; ++q) out[q] = q;
    return out;
}

std::vector<long long> pick_counts(ViewFixture& fixture, sim::Scheduler& sched,
                                   int n, std::uint64_t rng_seed) {
    auto& view = fixture.finalize();
    const auto eligible = all_procs(static_cast<int>(fixture.procs.size()));
    std::vector<int> nq(fixture.procs.size(), 0);
    std::vector<long long> counts(fixture.procs.size(), 0);
    util::Rng rng(rng_seed);
    for (int i = 0; i < n; ++i) {
        const auto pick = sched.select(view, eligible, nq, rng);
        ++counts[static_cast<std::size_t>(pick)];
    }
    return counts;
}

::testing::AssertionResult near_rel(double actual, double expected,
                                    double rel_tol) {
    const double scale =
        std::max({std::fabs(actual), std::fabs(expected), 1.0});
    const double diff = std::fabs(actual - expected);
    if (diff <= rel_tol * scale) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "actual " << actual << " vs expected " << expected
           << " differs by " << diff << " (allowed " << rel_tol * scale << ")";
}

bool same_matrix(const markov::TransitionMatrix& a,
                 const markov::TransitionMatrix& b) {
    for (int i = 0; i < markov::kNumStates; ++i)
        for (int j = 0; j < markov::kNumStates; ++j) {
            const auto from = static_cast<markov::ProcState>(i);
            const auto to = static_cast<markov::ProcState>(j);
            if (a(from, to) != b(from, to)) return false;
        }
    return true;
}

double chi_squared(std::span<const long long> observed,
                   std::span<const double> expected_probs) {
    if (observed.size() != expected_probs.size() || observed.empty())
        return std::numeric_limits<double>::infinity();
    long long n = 0;
    double mass = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        n += observed[i];
        mass += expected_probs[i];
    }
    if (n == 0 || mass <= 0.0) return std::numeric_limits<double>::infinity();
    double stat = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double expect =
            static_cast<double>(n) * (expected_probs[i] / mass);
        if (expect <= 0.0) return std::numeric_limits<double>::infinity();
        const double d = static_cast<double>(observed[i]) - expect;
        stat += d * d / expect;
    }
    return stat;
}

} // namespace volsched::test
