#pragma once
/// \file ct.hpp
/// Completion-time estimators of Section 6.3.1.
///
/// Equation (1) — contention-free estimate for assigning the n-th task of
/// the current round to processor q:
///     CT(q, n) = Delay(q) + Tdata + max(n-1, 0) * max(Tdata, w_q) + w_q
///
/// Equation (2) — contention-corrected variant used by the starred
/// heuristics, replacing Tdata by ceil(nactive / ncom) * Tdata, where
/// nactive counts the processors enrolled in this round (prospectively
/// including q itself when it has no assignment yet).

#include "sim/scheduler.hpp"

namespace volsched::core {

/// Eq. (1).  `n` is the total number of round-assigned tasks q would hold,
/// i.e. nq[q] + 1 when evaluating a candidate assignment.
double ct_plain(const sim::SchedView& view, sim::ProcId q, int n) noexcept;

/// Eq. (2).  `already_assigned` tells whether q already holds a task from
/// this round (nq[q] > 0), which determines the prospective nactive.
double ct_corrected(const sim::SchedView& view, sim::ProcId q, int n,
                    bool already_assigned) noexcept;

/// Dispatch helper: the scalar reference GreedyScheduler::scan must match
/// bit for bit (the heuristic property tests compare them).
inline double ct_estimate(const sim::SchedView& view, sim::ProcId q, int n,
                          bool already_assigned, bool starred) noexcept {
    return starred ? ct_corrected(view, q, n, already_assigned)
                   : ct_plain(view, q, n);
}

} // namespace volsched::core
