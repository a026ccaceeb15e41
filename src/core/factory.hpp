#pragma once
/// \file factory.hpp
/// The paper's curated heuristic name lists.  Schedulers are built from
/// these names by the self-registering registry (api/registry.hpp,
/// `SchedulerRegistry::instance().make(name)`); new heuristics register
/// themselves with VOLSCHED_REGISTER_SCHEDULER and need no edits here.

#include <string>
#include <vector>

namespace volsched::core {

/// All seventeen heuristic names of Section 6 in the paper's Table 2 order:
/// emct, emct*, mct, mct*, ud*, ud, lw*, lw, random1w..random4w (w-variants),
/// random1..random4, random.
const std::vector<std::string>& all_heuristic_names();

/// The eight greedy heuristics (Table 3 / Figure 2 focus).
const std::vector<std::string>& greedy_heuristic_names();

/// Extension heuristics (not part of the paper's evaluation): "hybrid"
/// (restart-aware expected completion) and the threshold-exclusion family
/// "thr<percent>:<inner>" (e.g. "thr50:emct" excludes processors whose
/// steady-state pi_u is below 0.50 and runs EMCT among the rest).
const std::vector<std::string>& extension_heuristic_names();

} // namespace volsched::core
