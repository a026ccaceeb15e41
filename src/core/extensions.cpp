#include "core/extensions.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "api/registry.hpp"
#include "markov/expectation.hpp"

namespace volsched::core {

ThresholdScheduler::ThresholdScheduler(std::unique_ptr<sim::Scheduler> inner,
                                       double threshold)
    : inner_(std::move(inner)), threshold_(threshold) {
    if (!inner_)
        throw std::invalid_argument("ThresholdScheduler: null inner");
    if (threshold_ < 0.0 || threshold_ > 1.0)
        throw std::invalid_argument(
            "ThresholdScheduler: threshold outside [0, 1]");
    char buf[64];
    std::snprintf(buf, sizeof buf, "thr%d:%s",
                  static_cast<int>(std::lround(100.0 * threshold_)),
                  std::string(inner_->name()).c_str());
    name_ = buf;
}

void ThresholdScheduler::begin_round(const sim::SchedView& view) {
    inner_->begin_round(view);
}

sim::ProcId ThresholdScheduler::select(const sim::SchedView& view,
                                       std::span<const sim::ProcId> eligible,
                                       std::span<const int> nq,
                                       util::Rng& rng) {
    filtered_.clear();
    for (const sim::ProcId q : eligible) {
        const auto* belief = view.procs[q].belief;
        // Uninformed processors cannot be judged; keep them.
        if (belief == nullptr ||
            belief->stationary().pi_u >= threshold_)
            filtered_.push_back(q);
    }
    if (filtered_.empty())
        return inner_->select(view, eligible, nq, rng);
    return inner_->select(view, filtered_, nq, rng);
}

double HybridScheduler::score(const sim::SchedView& view, sim::ProcId q,
                              double ct) const {
    const auto* belief = view.procs[q].belief;
    if (belief == nullptr) return ct; // uninformed: degrade to MCT
    const auto& m = belief->matrix();
    const auto& pi = belief->stationary();
    const double expected = markov::e_workload(m, ct);
    if (std::isinf(expected)) return std::numeric_limits<double>::infinity();
    const double p_survive = markov::p_ud_approx(m, pi.pi_u, pi.pi_r, expected);
    return p_survive > 0.0 ? expected / p_survive
                           : std::numeric_limits<double>::infinity();
}

sim::ProcId HybridScheduler::select(const sim::SchedView& view,
                                    std::span<const sim::ProcId> eligible,
                                    std::span<const int> nq, util::Rng&) {
    return scan<Ties::kStrict>(
        view, eligible, nq, [this](std::size_t q, double ct) {
            if (belief_of(q) == nullptr) return ct;
            const auto h = pin_of(q);
            const double expected = cache().e_workload(h, ct);
            if (std::isinf(expected))
                return std::numeric_limits<double>::infinity();
            const double p_survive = cache().p_ud_approx(h, expected);
            return p_survive > 0.0 ? expected / p_survive
                                   : std::numeric_limits<double>::infinity();
        });
}

// ---------------------------------------------------------------------------
// Registry self-registration: the extension heuristics.
// ---------------------------------------------------------------------------
namespace {

VOLSCHED_REGISTER_SCHEDULER(hybrid, {
    "hybrid", "restart-aware expected completion: E(CT) / P_UD(E(CT))",
    [](const api::SchedulerSpec& spec, const api::SchedulerRegistry&)
        -> std::unique_ptr<sim::Scheduler> {
        api::require_no_options(spec);
        return std::make_unique<HybridScheduler>();
    }});

VOLSCHED_REGISTER_SCHEDULER(thr, {
    "thr",
    "exclude processors with steady-state pi_u below percent/100, then run "
    "the inner heuristic (thr50:emct, thr(percent=50):emct)",
    [](const api::SchedulerSpec& spec, const api::SchedulerRegistry& registry)
        -> std::unique_ptr<sim::Scheduler> {
        api::require_only_options(spec, {"percent"});
        const long percent =
            api::require_int_option(spec, "percent", 0, 100, "scheduler spec");
        return std::make_unique<ThresholdScheduler>(
            registry.make(spec.inner()),
            static_cast<double>(percent) / 100.0);
    },
    /*takes_inner=*/true, /*shorthand_option=*/"percent"});

} // namespace

} // namespace volsched::core

VOLSCHED_SCHEDULER_TU_ANCHOR(extensions)
