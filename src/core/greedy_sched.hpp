#pragma once
/// \file greedy_sched.hpp
/// The eight greedy heuristics of Section 6.3, all built on the completion
/// time estimators of ct.hpp and the Markov formulas of Section 5:
///
///   MCT / MCT*   — minimize CT(q, nq+1)                     (Eq. 1 / Eq. 2)
///   EMCT / EMCT* — minimize E^q(CT(q, nq+1))                (Theorem 2)
///   LW / LW*     — maximize (P+^q)^{CT(q, nq+1)}            (Lemma 1)
///   UD / UD*     — maximize P_UD^q(E^q(CT(q, nq+1)))        (Section 6.3.3)
///
/// Ties are broken toward the smaller CT estimate, then the lower processor
/// index, making every greedy heuristic fully deterministic.
///
/// Each select() is one scalar pass over the candidates in `eligible`
/// order: Eq. (1)/(2) from the view's Delay(q) and the run's pinned
/// columns (core/belief_pins.hpp), then the heuristic's score through the
/// expectation cache's pinned handles (markov/expectation_cache.hpp), then
/// the tie rule, with no scratch arrays.  scan() below is that pass; each
/// heuristic's select() instantiates it with its score inlined, so a
/// select costs the engine's one virtual call.  Its decisions, tie-breaks,
/// expectation-cache calls and RNG consumption are bit-identical to the
/// scalar one-worker-at-a-time score() evaluation, which the heuristic
/// property tests keep as their oracle.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "core/belief_pins.hpp"
#include "markov/expectation_cache.hpp"
#include "sim/scheduler.hpp"

namespace volsched::core {

/// Shared skeleton: score every eligible processor, keep the best.
class GreedyScheduler : public sim::Scheduler {
public:
    /// One candidate as select() scored it.  *Smaller score is better*
    /// (maximizing heuristics negate); `ct` feeds tie-breaking.
    struct Scored {
        sim::ProcId q;
        double ct;
        double score;
    };

    /// select() that also appends every candidate's CT and score, in
    /// `eligible` order, to `trace`: the same kernel, so the property tests
    /// hold each value to the scalar reference bit for bit.
    sim::ProcId select_traced(const sim::SchedView& view,
                              std::span<const sim::ProcId> eligible,
                              std::span<const int> nq,
                              std::vector<Scored>& trace) {
        util::Rng unused(0); // the greedy family draws nothing
        trace_ = &trace;
        const sim::ProcId best = select(view, eligible, nq, unused);
        trace_ = nullptr;
        return best;
    }
    /// Round entry: pin every processor's belief in the expectation cache
    /// (one probe + validation each) on a run's first round, so the
    /// kernel reads through handles only.
    void begin_round(const sim::SchedView& view) final {
        pins_.repin(cache_, view);
    }
    [[nodiscard]] std::string_view name() const final { return name_; }

    /// Scalar reference scorer: one worker at a time, straight from the
    /// markov:: free functions.  select() never calls it; it is the
    /// property tests' oracle, which the kernel must match bit-exactly.
    [[nodiscard]] virtual double score(const sim::SchedView& view,
                                       sim::ProcId q, double ct) const = 0;

    /// Expectation-cache counters, exposed for tests and diagnostics.
    [[nodiscard]] const markov::ExpectationCache& cache() const noexcept {
        return cache_;
    }

    /// Memoization counters for RunMetrics / --metrics-json (observational
    /// only; the cached path scores bit-identically to the scalar path).
    [[nodiscard]] sim::SchedulerCounters counters() const override {
        return {cache_.hits(), cache_.misses(), cache_.invalidations()};
    }

protected:
    GreedyScheduler(std::string base_name, bool starred);

    /// How scan() settles near-equal scores.
    enum class Ties {
        /// Scores within 1e-12 tie, and the smaller CT wins (the greedy
        /// family; the earlier candidate wins a full tie).
        kSmallerCt,
        /// Only a strictly smaller score displaces the best.
        kStrict,
    };

    /// The scoring kernel, one pass over `eligible`: each heuristic's
    /// select() is scan() with its score.  `score_of(q, ct)` scores
    /// processor q at completion-time estimate ct.
    template <Ties kTies = Ties::kSmallerCt, class ScoreOf>
    sim::ProcId scan(const sim::SchedView& view,
                     std::span<const sim::ProcId> eligible,
                     std::span<const int> nq, ScoreOf score_of) {
        pins_.repin(cache_, view);
        // The communication term of Eq. (1) is Tdata.  Eq. (2)'s takes one
        // of two values per select: q already enrolled this round, or
        // prospectively enrolled by this assignment.
        const double t_data = view.platform->t_data;
        double td_already = t_data;
        double td_fresh = t_data;
        if (starred_) {
            const int ncom = view.platform->ncom;
            td_already =
                static_cast<double>((view.nactive + ncom - 1) / ncom) * t_data;
            td_fresh = static_cast<double>((view.nactive + 1 + ncom - 1) /
                                           ncom) *
                       t_data;
        }
        sim::ProcId best = eligible[0];
        double best_score = std::numeric_limits<double>::infinity();
        double best_ct = std::numeric_limits<double>::infinity();
        for (const sim::ProcId p : eligible) {
            const auto q = static_cast<std::size_t>(p);
            const double td = nq[q] > 0 ? td_already : td_fresh;
            const double w = pins_.w[q];
            // Operation for operation the arithmetic of ct_plain /
            // ct_corrected (max(n-1, 0) with n = nq[q]+1 is just nq[q]).
            const double ct = static_cast<double>(view.procs[q].delay) + td +
                              static_cast<double>(nq[q]) * std::max(td, w) +
                              w;
            const double s = score_of(q, ct);
            if (trace_ != nullptr) trace_->push_back({p, ct, s});
            if constexpr (kTies == Ties::kStrict) {
                if (s < best_score) {
                    best = p;
                    best_score = s;
                }
            } else if (s < best_score - 1e-12 ||
                       (std::fabs(s - best_score) <= 1e-12 && ct < best_ct)) {
                best = p;
                best_score = s;
                best_ct = ct;
            }
        }
        return best;
    }

    [[nodiscard]] markov::ExpectationCache& cache() noexcept {
        return cache_;
    }
    /// The handle pinned for processor `q` this run (null when the
    /// processor has no belief — callers branch on belief themselves).
    [[nodiscard]] markov::ExpectationCache::Handle pin_of(
        std::size_t q) const {
        return pins_.handles[q];
    }
    /// Processor q's belief chain, read from the run's contiguous
    /// snapshot rather than the strided ProcView records.
    [[nodiscard]] const markov::MarkovChain* belief_of(std::size_t q) const {
        return pins_.beliefs[q];
    }

private:
    std::string name_;
    bool starred_;
    markov::ExpectationCache cache_;
    BeliefPins pins_;
    /// Where scan() records its candidates: set only by select_traced().
    std::vector<Scored>* trace_ = nullptr;
};

/// MCT and MCT* (Section 6.3.1): minimum estimated completion time — the
/// optimal policy for the contention-free off-line problem (Proposition 2).
class MctScheduler final : public GreedyScheduler {
public:
    explicit MctScheduler(bool starred_variant);

    [[nodiscard]] double score(const sim::SchedView& view, sim::ProcId q,
                               double ct) const override;
    sim::ProcId select(const sim::SchedView& view,
                       std::span<const sim::ProcId> eligible,
                       std::span<const int> nq, util::Rng& rng) override;
};

/// EMCT and EMCT*: minimum *expected* completion time, inflating CT by the
/// expected RECLAIMED detours via Theorem 2.
class EmctScheduler final : public GreedyScheduler {
public:
    explicit EmctScheduler(bool starred_variant);

    [[nodiscard]] double score(const sim::SchedView& view, sim::ProcId q,
                               double ct) const override;
    sim::ProcId select(const sim::SchedView& view,
                       std::span<const sim::ProcId> eligible,
                       std::span<const int> nq, util::Rng& rng) override;
};

/// LW and LW* (Section 6.3.2): maximize the probability that the processor
/// stays failure-free for its whole estimated workload, (P+)^CT.  Scores
/// compare CT * ln(P+) to avoid underflow for large workloads.
class LwScheduler final : public GreedyScheduler {
public:
    explicit LwScheduler(bool starred_variant);

    [[nodiscard]] double score(const sim::SchedView& view, sim::ProcId q,
                               double ct) const override;
    sim::ProcId select(const sim::SchedView& view,
                       std::span<const sim::ProcId> eligible,
                       std::span<const int> nq, util::Rng& rng) override;
};

/// UD and UD* (Section 6.3.3): maximize the probability of not crashing
/// during the *expected* number of wall-clock slots E(CT), RECLAIMED slots
/// included, using the paper's closed-form P_UD approximation.
class UdScheduler final : public GreedyScheduler {
public:
    explicit UdScheduler(bool starred_variant);

    [[nodiscard]] double score(const sim::SchedView& view, sim::ProcId q,
                               double ct) const override;
    sim::ProcId select(const sim::SchedView& view,
                       std::span<const sim::ProcId> eligible,
                       std::span<const int> nq, util::Rng& rng) override;
};

} // namespace volsched::core
