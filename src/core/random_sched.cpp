#include "core/random_sched.hpp"

#include <memory>

#include "api/registry.hpp"
#include "markov/expectation.hpp"

namespace volsched::core {

RandomScheduler::RandomScheduler(RandomWeight weight, bool divide_by_speed)
    : weight_(weight), divide_by_speed_(divide_by_speed) {
    switch (weight_) {
        case RandomWeight::Uniform: name_ = "random"; break;
        case RandomWeight::LongTimeUp: name_ = "random1"; break;
        case RandomWeight::LikelyWorkMore: name_ = "random2"; break;
        case RandomWeight::OftenUp: name_ = "random3"; break;
        case RandomWeight::RarelyDown: name_ = "random4"; break;
    }
    if (divide_by_speed_ && weight_ != RandomWeight::Uniform) name_ += "w";
}

double RandomScheduler::weight_of(const sim::ProcView& pv) const {
    double w = 1.0;
    if (pv.belief != nullptr) {
        const auto& m = pv.belief->matrix();
        const auto& pi = pv.belief->stationary();
        switch (weight_) {
            case RandomWeight::Uniform: w = 1.0; break;
            case RandomWeight::LongTimeUp: w = m.p_uu(); break;
            case RandomWeight::LikelyWorkMore: w = markov::p_plus(m); break;
            case RandomWeight::OftenUp: w = pi.pi_u; break;
            case RandomWeight::RarelyDown: w = 1.0 - pi.pi_d; break;
        }
    }
    if (divide_by_speed_) w /= static_cast<double>(pv.w);
    return w;
}

void RandomScheduler::refresh_weights(const sim::SchedView& view) {
    const std::size_t n = view.procs.size();
    if (view.run != 0 && view.run == weights_run_ &&
        weight_by_proc_.size() == n)
        return;
    weights_run_ = view.run;
    weight_by_proc_.resize(n);
    for (std::size_t q = 0; q < n; ++q)
        weight_by_proc_[q] = weight_of(view.procs[q]);
}

void RandomScheduler::begin_round(const sim::SchedView& view) {
    refresh_weights(view);
}

sim::ProcId RandomScheduler::select(const sim::SchedView& view,
                                    std::span<const sim::ProcId> eligible,
                                    std::span<const int> nq, util::Rng& rng) {
    (void)nq;
    refresh_weights(view);
    // util::Rng::weighted_index over the candidates' weights, read in
    // place: the same sums, draws and fallbacks in the same order.
    const auto weight = [this](sim::ProcId q) {
        return weight_by_proc_[static_cast<std::size_t>(q)];
    };
    double total = 0.0;
    for (const sim::ProcId q : eligible)
        if (weight(q) > 0.0) total += weight(q);
    if (total <= 0.0) {
        // All weights zero (e.g. pi_u == 0 everywhere): fall back to uniform.
        return eligible[rng.uniform_int(0, eligible.size() - 1)];
    }
    double r = rng.uniform() * total;
    sim::ProcId last_positive = sim::kNoProc;
    for (const sim::ProcId q : eligible) {
        if (weight(q) <= 0.0) continue;
        r -= weight(q);
        if (r < 0.0) return q;
        last_positive = q;
    }
    // Floating-point slack: the last positive-weight candidate.
    return last_positive;
}

// ---------------------------------------------------------------------------
// Registry self-registration: the nine random heuristics of Section 6.2.
// ---------------------------------------------------------------------------
namespace {

auto random_factory(RandomWeight weight, bool divide_by_speed) {
    return [weight, divide_by_speed](const api::SchedulerSpec& spec,
                                     const api::SchedulerRegistry&)
               -> std::unique_ptr<sim::Scheduler> {
        api::require_no_options(spec);
        return std::make_unique<RandomScheduler>(weight, divide_by_speed);
    };
}

VOLSCHED_REGISTER_SCHEDULER(random, {
    "random", "uniform random UP processor",
    random_factory(RandomWeight::Uniform, false)});
VOLSCHED_REGISTER_SCHEDULER(random1, {
    "random1", "random weighted by P_uu (long time up)",
    random_factory(RandomWeight::LongTimeUp, false)});
VOLSCHED_REGISTER_SCHEDULER(random2, {
    "random2", "random weighted by P+ (likely to work more, Lemma 1)",
    random_factory(RandomWeight::LikelyWorkMore, false)});
VOLSCHED_REGISTER_SCHEDULER(random3, {
    "random3", "random weighted by pi_u (often up)",
    random_factory(RandomWeight::OftenUp, false)});
VOLSCHED_REGISTER_SCHEDULER(random4, {
    "random4", "random weighted by 1 - pi_d (rarely down)",
    random_factory(RandomWeight::RarelyDown, false)});
VOLSCHED_REGISTER_SCHEDULER(random1w, {
    "random1w", "random1 with the weight divided by w_q (speed-aware)",
    random_factory(RandomWeight::LongTimeUp, true)});
VOLSCHED_REGISTER_SCHEDULER(random2w, {
    "random2w", "random2 with the weight divided by w_q (speed-aware)",
    random_factory(RandomWeight::LikelyWorkMore, true)});
VOLSCHED_REGISTER_SCHEDULER(random3w, {
    "random3w", "random3 with the weight divided by w_q (speed-aware)",
    random_factory(RandomWeight::OftenUp, true)});
VOLSCHED_REGISTER_SCHEDULER(random4w, {
    "random4w", "random4 with the weight divided by w_q (speed-aware)",
    random_factory(RandomWeight::RarelyDown, true)});

} // namespace

} // namespace volsched::core

VOLSCHED_SCHEDULER_TU_ANCHOR(random)
