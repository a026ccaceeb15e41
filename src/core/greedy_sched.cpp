#include "core/greedy_sched.hpp"

#include <cmath>
#include <limits>
#include <memory>

#include "api/registry.hpp"
#include "markov/expectation.hpp"

namespace volsched::core {

GreedyScheduler::GreedyScheduler(std::string base_name, bool starred_variant)
    : name_(std::move(base_name)), starred_(starred_variant) {
    if (starred_) name_ += "*";
}

MctScheduler::MctScheduler(bool starred_variant)
    : GreedyScheduler("mct", starred_variant) {}

double MctScheduler::score(const sim::SchedView&, sim::ProcId,
                           double ct) const {
    return ct;
}

sim::ProcId MctScheduler::select(const sim::SchedView& view,
                                 std::span<const sim::ProcId> eligible,
                                 std::span<const int> nq, util::Rng&) {
    return scan(view, eligible, nq,
                [](std::size_t, double ct) { return ct; });
}

EmctScheduler::EmctScheduler(bool starred_variant)
    : GreedyScheduler("emct", starred_variant) {}

double EmctScheduler::score(const sim::SchedView& view, sim::ProcId q,
                            double ct) const {
    const auto* belief = view.procs[q].belief;
    if (belief == nullptr) return ct; // uninformed: degrade to MCT
    return markov::e_workload(belief->matrix(), ct);
}

sim::ProcId EmctScheduler::select(const sim::SchedView& view,
                                  std::span<const sim::ProcId> eligible,
                                  std::span<const int> nq, util::Rng&) {
    return scan(view, eligible, nq, [this](std::size_t q, double ct) {
        return belief_of(q) == nullptr
                   ? ct // uninformed: degrade to MCT
                   : cache().e_workload(pin_of(q), ct);
    });
}

LwScheduler::LwScheduler(bool starred_variant)
    : GreedyScheduler("lw", starred_variant) {}

double LwScheduler::score(const sim::SchedView& view, sim::ProcId q,
                          double ct) const {
    const auto* belief = view.procs[q].belief;
    if (belief == nullptr) return 0.0; // uninformed: all ties, CT breaks them
    const double p = markov::p_plus(belief->matrix());
    if (p <= 0.0) return std::numeric_limits<double>::infinity();
    // Maximize p^ct  <=>  minimize -ct * ln(p)  (ln(p) <= 0).
    return -ct * std::log(p);
}

sim::ProcId LwScheduler::select(const sim::SchedView& view,
                                std::span<const sim::ProcId> eligible,
                                std::span<const int> nq, util::Rng&) {
    return scan(view, eligible, nq, [this](std::size_t q, double ct) {
        // Uninformed: all ties, CT breaks them.
        if (belief_of(q) == nullptr) return 0.0;
        const auto h = pin_of(q);
        const double p = cache().p_plus(h);
        // Maximize p^ct  <=>  minimize -ct * ln(p)  (ln(p) <= 0).
        return p <= 0.0 ? std::numeric_limits<double>::infinity()
                        : -ct * cache().log_p_plus(h);
    });
}

UdScheduler::UdScheduler(bool starred_variant)
    : GreedyScheduler("ud", starred_variant) {}

double UdScheduler::score(const sim::SchedView& view, sim::ProcId q,
                          double ct) const {
    const auto* belief = view.procs[q].belief;
    if (belief == nullptr) return 0.0;
    const auto& m = belief->matrix();
    const auto& pi = belief->stationary();
    const double expected = markov::e_workload(m, ct);
    if (std::isinf(expected)) return std::numeric_limits<double>::infinity();
    const double p = markov::p_ud_approx(m, pi.pi_u, pi.pi_r, expected);
    // Maximize p  <=>  minimize -p (log not needed: p is a single factor).
    return -p;
}

sim::ProcId UdScheduler::select(const sim::SchedView& view,
                                std::span<const sim::ProcId> eligible,
                                std::span<const int> nq, util::Rng&) {
    return scan(view, eligible, nq, [this](std::size_t q, double ct) {
        if (belief_of(q) == nullptr) return 0.0;
        const auto h = pin_of(q);
        const double expected = cache().e_workload(h, ct);
        if (std::isinf(expected))
            return std::numeric_limits<double>::infinity();
        // Maximize p  <=>  minimize -p (log not needed: one factor).
        return -cache().p_ud_approx(h, expected);
    });
}

// ---------------------------------------------------------------------------
// Registry self-registration: the eight greedy heuristics of Section 6.3.
// ---------------------------------------------------------------------------
namespace {

/// Factory for a greedy scheduler with no spec options beyond its name.
template <class S>
auto greedy_factory(bool starred) {
    return [starred](const api::SchedulerSpec& spec,
                     const api::SchedulerRegistry&)
               -> std::unique_ptr<sim::Scheduler> {
        api::require_no_options(spec);
        return std::make_unique<S>(starred);
    };
}

VOLSCHED_REGISTER_SCHEDULER(mct, {
    "mct", "minimum estimated completion time (Section 6.3.1)",
    greedy_factory<MctScheduler>(false)});
VOLSCHED_REGISTER_SCHEDULER(mct_star, {
    "mct*", "MCT with the nactive spread correction",
    greedy_factory<MctScheduler>(true)});
VOLSCHED_REGISTER_SCHEDULER(emct, {
    "emct", "minimum expected completion time under the belief (Theorem 2)",
    greedy_factory<EmctScheduler>(false)});
VOLSCHED_REGISTER_SCHEDULER(emct_star, {
    "emct*", "EMCT with the nactive spread correction",
    greedy_factory<EmctScheduler>(true)});
VOLSCHED_REGISTER_SCHEDULER(lw, {
    "lw", "most likely to stay up for the whole workload (Section 6.3.2)",
    greedy_factory<LwScheduler>(false)});
VOLSCHED_REGISTER_SCHEDULER(lw_star, {
    "lw*", "LW with the nactive spread correction",
    greedy_factory<LwScheduler>(true)});
VOLSCHED_REGISTER_SCHEDULER(ud, {
    "ud", "max probability of no crash during E(CT) (Section 6.3.3)",
    greedy_factory<UdScheduler>(false)});
VOLSCHED_REGISTER_SCHEDULER(ud_star, {
    "ud*", "UD with the nactive spread correction",
    greedy_factory<UdScheduler>(true)});

} // namespace

} // namespace volsched::core

VOLSCHED_SCHEDULER_TU_ANCHOR(greedy)
