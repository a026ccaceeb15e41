#include "core/greedy_sched.hpp"

#include <algorithm>
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

void GreedyScheduler::batched_scores(const sim::SchedView& view,
                                     std::span<const sim::ProcId> eligible,
                                     std::span<const int> nq,
                                     std::vector<double>& cts,
                                     std::vector<double>& scores) {
    pins_.refresh(cache(), view);
    cts.resize(eligible.size());
    scores.resize(eligible.size());
    // Inline Eq. (1)/(2) over the round's contiguous column snapshots,
    // operation for operation the arithmetic of ct_plain/ct_corrected
    // (max(n-1, 0) with n = nq[q]+1 is just nq[q]).  ct_estimate stays
    // the reference the property tests compare against.
    if (!starred_) {
        const double t_data = view.platform->t_data;
        for (std::size_t i = 0; i < eligible.size(); ++i) {
            const auto q = static_cast<std::size_t>(eligible[i]);
            cts[i] = pins_.delay[q] + t_data +
                     static_cast<double>(nq[q]) * pins_.step_plain[q] +
                     pins_.w[q];
        }
    } else {
        const int ncom = view.platform->ncom;
        const double t_data = view.platform->t_data;
        // The congestion factor takes one of two values per select: q
        // already enrolled this round, or prospectively enrolled by this
        // assignment.
        const double td_already =
            static_cast<double>((view.nactive + ncom - 1) / ncom) * t_data;
        const double td_fresh =
            static_cast<double>((view.nactive + 1 + ncom - 1) / ncom) *
            t_data;
        for (std::size_t i = 0; i < eligible.size(); ++i) {
            const auto q = static_cast<std::size_t>(eligible[i]);
            const double td = nq[q] > 0 ? td_already : td_fresh;
            cts[i] = pins_.delay[q] + td +
                     static_cast<double>(nq[q]) * std::max(td, pins_.w[q]) +
                     pins_.w[q];
        }
    }
    score_batch(view, eligible, cts, scores);
}

sim::ProcId GreedyScheduler::select(const sim::SchedView& view,
                                    std::span<const sim::ProcId> eligible,
                                    std::span<const int> nq, util::Rng& rng) {
    (void)rng;
    batched_scores(view, eligible, nq, cts_, scores_);
    sim::ProcId best = eligible[0];
    double best_score = std::numeric_limits<double>::infinity();
    double best_ct = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < eligible.size(); ++i) {
        const double s = scores_[i];
        const double ct = cts_[i];
        if (s < best_score - 1e-12 ||
            (std::fabs(s - best_score) <= 1e-12 && ct < best_ct)) {
            best = eligible[i];
            best_score = s;
            best_ct = ct;
        }
    }
    return best;
}

MctScheduler::MctScheduler(bool starred_variant)
    : GreedyScheduler("mct", starred_variant) {}

double MctScheduler::score(const sim::SchedView&, sim::ProcId,
                           double ct) const {
    return ct;
}

void MctScheduler::score_batch(const sim::SchedView&,
                               std::span<const sim::ProcId> eligible,
                               std::span<const double> cts,
                               std::span<double> scores) {
    for (std::size_t i = 0; i < eligible.size(); ++i) scores[i] = cts[i];
}

EmctScheduler::EmctScheduler(bool starred_variant)
    : GreedyScheduler("emct", starred_variant) {}

double EmctScheduler::score(const sim::SchedView& view, sim::ProcId q,
                            double ct) const {
    const auto* belief = view.procs[q].belief;
    if (belief == nullptr) return ct; // uninformed: degrade to MCT
    return markov::e_workload(belief->matrix(), ct);
}

void EmctScheduler::score_batch(const sim::SchedView& view,
                                std::span<const sim::ProcId> eligible,
                                std::span<const double> cts,
                                std::span<double> scores) {
    (void)view;
    for (std::size_t i = 0; i < eligible.size(); ++i) {
        scores[i] = belief_of(eligible[i]) == nullptr
                        ? cts[i] // uninformed: degrade to MCT
                        : cache().e_workload(pin_of(eligible[i]), cts[i]);
    }
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

void LwScheduler::score_batch(const sim::SchedView& view,
                              std::span<const sim::ProcId> eligible,
                              std::span<const double> cts,
                              std::span<double> scores) {
    (void)view;
    for (std::size_t i = 0; i < eligible.size(); ++i) {
        if (belief_of(eligible[i]) == nullptr) {
            scores[i] = 0.0; // uninformed: all ties, CT breaks them
            continue;
        }
        const auto h = pin_of(eligible[i]);
        const double p = cache().p_plus(h);
        // Maximize p^ct  <=>  minimize -ct * ln(p)  (ln(p) <= 0).
        scores[i] = p <= 0.0 ? std::numeric_limits<double>::infinity()
                             : -cts[i] * cache().log_p_plus(h);
    }
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

void UdScheduler::score_batch(const sim::SchedView& view,
                              std::span<const sim::ProcId> eligible,
                              std::span<const double> cts,
                              std::span<double> scores) {
    (void)view;
    for (std::size_t i = 0; i < eligible.size(); ++i) {
        if (belief_of(eligible[i]) == nullptr) {
            scores[i] = 0.0;
            continue;
        }
        const auto h = pin_of(eligible[i]);
        const double expected = cache().e_workload(h, cts[i]);
        if (std::isinf(expected)) {
            scores[i] = std::numeric_limits<double>::infinity();
            continue;
        }
        // Maximize p  <=>  minimize -p (log not needed: one factor).
        scores[i] = -cache().p_ud_approx(h, expected);
    }
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
