#pragma once
/// \file extensions.hpp
/// Heuristics beyond the paper's seventeen, motivated by its related work:
///
/// - ThresholdScheduler: the exclusion policies of the desktop-grid
///   literature the paper cites (Kondo et al. [16], Estrada et al. [18]):
///   processors whose steady-state availability pi_u falls below a
///   threshold are excluded from selection altogether; an inner heuristic
///   chooses among the survivors.  Falls back to the full eligible set when
///   the filter would empty it.
///
/// - HybridScheduler ("hybrid"): a restart-aware expected completion time.
///   If a crash forces a full redo and attempts are independent, the
///   expected number of attempts is 1 / P_success, so
///       score(q) = E^q(CT) / P_UD^q(E^q(CT))
///   blends EMCT's expectation with UD's crash probability in one number
///   instead of choosing between them.  It runs on the greedy skeleton
///   (core/greedy_sched.hpp) with Eq. (1)'s CT, and only a strictly
///   smaller score displaces the best candidate.

#include <memory>
#include <string>
#include <vector>

#include "core/greedy_sched.hpp"
#include "sim/scheduler.hpp"

namespace volsched::core {

class ThresholdScheduler final : public sim::Scheduler {
public:
    /// `threshold` in [0, 1]: minimum steady-state pi_u to stay eligible.
    ThresholdScheduler(std::unique_ptr<sim::Scheduler> inner,
                       double threshold);

    sim::ProcId select(const sim::SchedView& view,
                       std::span<const sim::ProcId> eligible,
                       std::span<const int> nq, util::Rng& rng) override;
    void begin_round(const sim::SchedView& view) override;
    [[nodiscard]] std::string_view name() const override { return name_; }

    [[nodiscard]] double threshold() const noexcept { return threshold_; }

    /// Forwards the inner heuristic's cache counters — the wrapper filters
    /// eligibility, the inner scheduler does the (possibly memoized)
    /// scoring.
    [[nodiscard]] sim::SchedulerCounters counters() const override {
        return inner_->counters();
    }

private:
    std::unique_ptr<sim::Scheduler> inner_;
    double threshold_;
    std::string name_;
    std::vector<sim::ProcId> filtered_;
};

class HybridScheduler final : public GreedyScheduler {
public:
    HybridScheduler() : GreedyScheduler("hybrid", false) {}

    [[nodiscard]] double score(const sim::SchedView& view, sim::ProcId q,
                               double ct) const override;
    sim::ProcId select(const sim::SchedView& view,
                       std::span<const sim::ProcId> eligible,
                       std::span<const int> nq, util::Rng& rng) override;
};

} // namespace volsched::core
