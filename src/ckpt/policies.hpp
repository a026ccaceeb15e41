#pragma once
/// \file policies.hpp
/// Closed forms behind the built-in checkpoint policies, exposed so tests
/// (and anyone sizing a policy by hand) can cross-check the registry-built
/// instances against the formulas.  The policies themselves self-register
/// from policies.cpp; build them via ckpt::CheckpointRegistry.

#include "markov/transition.hpp"

namespace volsched::ckpt {

/// The Young/Daly checkpoint interval in compute slots:
///   tau = sqrt(2 * C * M)
/// with C the checkpoint cost (transfer slots, clamped to at least 1) and M
/// the chain's mean time to DOWN from UP (markov::mean_time_to_down),
/// rounded to the nearest slot and clamped to at least 1.  Returns 0
/// ("never checkpoint") when M is infinite — a chain that cannot crash has
/// nothing to protect against.  The `daly` policy applies the same formula
/// to its belief's MarkovChain::mean_time_to_down(), the M solved once per
/// chain, so its decisions equal this closed form's (pinned by test_ckpt).
int daly_interval(const markov::TransitionMatrix& m, int cost) noexcept;

/// The `risk` policy's trigger quantity: the probability that a processor
/// currently UP enters DOWN at least once within the next `remaining`
/// slots, i.e. 1 - P_UD(remaining) via markov::p_ud_exact.  `remaining <= 0`
/// returns 0 (nothing left to lose).
double crash_risk(const markov::TransitionMatrix& m, int remaining) noexcept;

} // namespace volsched::ckpt
