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
/// Scoring runs in batched passes over contiguous arrays — one pass fills
/// the completion-time estimates, one pass the scores, one argmin pass
/// picks the winner — with the Markov expectations memoized per transition
/// matrix (markov/expectation_cache.hpp).  That is the only scoring path;
/// its decisions, tie-breaks and RNG consumption are bit-identical to the
/// scalar one-worker-at-a-time score() evaluation, which the heuristic
/// property tests keep as their oracle.

#include <string>
#include <vector>

#include "core/belief_pins.hpp"
#include "markov/expectation_cache.hpp"
#include "sim/scheduler.hpp"

namespace volsched::core {

/// Shared skeleton: score every eligible processor, keep the best.
class GreedyScheduler : public sim::Scheduler {
public:
    sim::ProcId select(const sim::SchedView& view,
                       std::span<const sim::ProcId> eligible,
                       std::span<const int> nq, util::Rng& rng) final;
    /// Round entry: pin every processor's belief in the expectation cache
    /// (one probe + validation each), so the scoring loops below read
    /// through handles only.
    void begin_round(const sim::SchedView& view) final {
        pins_.repin(cache_, view);
    }
    [[nodiscard]] std::string_view name() const final { return name_; }

    /// The scoring passes select() runs, exposed so the property tests can
    /// compare the batched path against scalar re-evaluation: resizes and
    /// fills `cts[i]` / `scores[i]` for `eligible[i]`.  *Smaller score is
    /// better* (maximizing heuristics negate); `cts` feeds tie-breaking.
    void batched_scores(const sim::SchedView& view,
                        std::span<const sim::ProcId> eligible,
                        std::span<const int> nq, std::vector<double>& cts,
                        std::vector<double>& scores);

    /// Scalar reference scorer: one worker at a time, straight from the
    /// markov:: free functions.  select() never calls it; it is the
    /// property tests' oracle, which score_batch must match bit-exactly.
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

    /// One contiguous scoring pass: `scores[i]` = score of assigning the
    /// next instance to `eligible[i]` given the completion-time estimate
    /// `cts[i]`.  No per-element virtual dispatch — each heuristic is one
    /// tight loop the compiler can vectorize.
    virtual void score_batch(const sim::SchedView& view,
                             std::span<const sim::ProcId> eligible,
                             std::span<const double> cts,
                             std::span<double> scores) = 0;

    [[nodiscard]] markov::ExpectationCache& cache() noexcept {
        return cache_;
    }
    /// The handle pinned for processor `q` this round (null when the
    /// processor has no belief — callers branch on belief themselves).
    [[nodiscard]] markov::ExpectationCache::Handle pin_of(
        sim::ProcId q) const {
        return pins_.handles[static_cast<std::size_t>(q)];
    }
    /// Processor q's belief chain, read from the round's contiguous
    /// snapshot rather than the strided ProcView records.
    [[nodiscard]] const markov::MarkovChain* belief_of(sim::ProcId q) const {
        return pins_.beliefs[static_cast<std::size_t>(q)];
    }

private:
    std::string name_;
    bool starred_;
    markov::ExpectationCache cache_;
    BeliefPins pins_;
    // Scratch for select(): reused across rounds, never shrunk.
    std::vector<double> cts_;
    std::vector<double> scores_;
};

/// MCT and MCT* (Section 6.3.1): minimum estimated completion time — the
/// optimal policy for the contention-free off-line problem (Proposition 2).
class MctScheduler final : public GreedyScheduler {
public:
    explicit MctScheduler(bool starred_variant);

    [[nodiscard]] double score(const sim::SchedView& view, sim::ProcId q,
                               double ct) const override;

protected:
    void score_batch(const sim::SchedView& view,
                     std::span<const sim::ProcId> eligible,
                     std::span<const double> cts,
                     std::span<double> scores) override;
};

/// EMCT and EMCT*: minimum *expected* completion time, inflating CT by the
/// expected RECLAIMED detours via Theorem 2.
class EmctScheduler final : public GreedyScheduler {
public:
    explicit EmctScheduler(bool starred_variant);

    [[nodiscard]] double score(const sim::SchedView& view, sim::ProcId q,
                               double ct) const override;

protected:
    void score_batch(const sim::SchedView& view,
                     std::span<const sim::ProcId> eligible,
                     std::span<const double> cts,
                     std::span<double> scores) override;
};

/// LW and LW* (Section 6.3.2): maximize the probability that the processor
/// stays failure-free for its whole estimated workload, (P+)^CT.  Scores
/// compare CT * ln(P+) to avoid underflow for large workloads.
class LwScheduler final : public GreedyScheduler {
public:
    explicit LwScheduler(bool starred_variant);

    [[nodiscard]] double score(const sim::SchedView& view, sim::ProcId q,
                               double ct) const override;

protected:
    void score_batch(const sim::SchedView& view,
                     std::span<const sim::ProcId> eligible,
                     std::span<const double> cts,
                     std::span<double> scores) override;
};

/// UD and UD* (Section 6.3.3): maximize the probability of not crashing
/// during the *expected* number of wall-clock slots E(CT), RECLAIMED slots
/// included, using the paper's closed-form P_UD approximation.
class UdScheduler final : public GreedyScheduler {
public:
    explicit UdScheduler(bool starred_variant);

    [[nodiscard]] double score(const sim::SchedView& view, sim::ProcId q,
                               double ct) const override;

protected:
    void score_batch(const sim::SchedView& view,
                     std::span<const sim::ProcId> eligible,
                     std::span<const double> cts,
                     std::span<double> scores) override;
};

} // namespace volsched::core
