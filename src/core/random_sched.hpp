#pragma once
/// \file random_sched.hpp
/// The nine random heuristics of Section 6.2.  Each picks an UP processor
/// with probability proportional to a reliability weight:
///
///   Random   — uniform
///   Random1  — P_uu            ("long time UP")
///   Random2  — P+              ("likely to work more", Lemma 1)
///   Random3  — pi_u            ("often UP")
///   Random4  — 1 - pi_d        ("rarely DOWN")
///
/// The `w` suffix divides the weight by w_q, blending speed into the pick.
///
/// A processor's weight depends only on its belief chain and speed, both
/// fixed for a whole run (sim/scheduler.hpp), so the weights are computed
/// once per SchedView::run.  select() then reads them through the
/// candidates in place, with util::Rng::weighted_index's exact arithmetic
/// and draws (the sum of positive weights, one uniform(), sequential
/// subtraction, the uniform_int and last-positive fallbacks) — decisions
/// and RNG state bit-identical to weighted_index over the gathered
/// weights, without the copy.  A hand-built view (run 0) is weighed afresh
/// on every call.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"

namespace volsched::core {

enum class RandomWeight {
    Uniform,
    LongTimeUp,     // Random1
    LikelyWorkMore, // Random2
    OftenUp,        // Random3
    RarelyDown,     // Random4
};

class RandomScheduler final : public sim::Scheduler {
public:
    RandomScheduler(RandomWeight weight, bool divide_by_speed);

    sim::ProcId select(const sim::SchedView& view,
                       std::span<const sim::ProcId> eligible,
                       std::span<const int> nq, util::Rng& rng) override;
    void begin_round(const sim::SchedView& view) override;
    [[nodiscard]] std::string_view name() const override { return name_; }

private:
    [[nodiscard]] double weight_of(const sim::ProcView& pv) const;
    /// Recompute weight_by_proc_ unless it already holds view.run's
    /// weights.
    void refresh_weights(const sim::SchedView& view);

    RandomWeight weight_;
    bool divide_by_speed_;
    std::string name_;
    /// Per-processor weights of run weights_run_ (0: none yet, or a
    /// hand-built view).
    std::vector<double> weight_by_proc_;
    std::uint64_t weights_run_ = 0;
};

} // namespace volsched::core
