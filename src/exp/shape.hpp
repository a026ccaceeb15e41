#pragma once
/// \file shape.hpp
/// Automated reproduction verdicts.  Absolute dfb values depend on the
/// instance sample, but the paper's conclusions are *qualitative ordering
/// claims* — who beats whom, where the crossovers fall.  This module
/// encodes those claims as machine-checkable predicates over sweep results
/// and recognises the paper's four experiments from a campaign header, so
/// `volsched_campaign merge` prints PASS/FAIL lines for a campaign that
/// runs one of them, and the test suite can assert the reproduction holds
/// on small sweeps.

#include <string>
#include <vector>

#include "exp/sweep.hpp"

namespace volsched::exp {

struct CampaignHeader;

struct ShapeCheck {
    std::string description;
    bool passed = false;
    double lhs = 0.0; ///< the two quantities that were compared
    double rhs = 0.0;
};

/// Table 2 claims, for a sweep over core::all_heuristic_names() (17 names
/// in the canonical factory order):
///  - the EMCT family beats the MCT family (10%-better-makespan headline),
///  - MCT beats UD beats LW on average dfb,
///  - every speed-weighted random beats its unweighted sibling,
///  - every greedy heuristic beats every random one,
///  - the EMCT family collects the most wins.
std::vector<ShapeCheck> check_table2_shape(const SweepResult& result);

/// Figure 2 claims, for a sweep over {mct, mct*, emct, emct*, ud*, lw*}:
///  - a crossover exists: EMCT dips below MCT at some wmin,
///  - EMCT stays below MCT on the upper half of the wmin range,
///  - UD* and LW* improve monotonically-in-trend from wmin=1 to wmin=max
///    (first value strictly worse than last).
std::vector<ShapeCheck> check_figure2_shape(const SweepResult& result);

/// Table 3 claims for the communication-times-x5 setting, for a sweep over
/// core::greedy_heuristic_names() ({mct, mct*, emct, emct*, lw, lw*, ud,
/// ud*}):
///  - an EMCT-family member is best.
std::vector<ShapeCheck> check_table3_x5_shape(const SweepResult& result);

/// Table 3 claims for the x10 setting, over the same heuristics:
///  - a UD-family member is best,
///  - plain MCT's collapse — worse than every non-MCT heuristic and at
///    least 2x the dfb of the best.
std::vector<ShapeCheck> check_table3_x10_shape(const SweepResult& result);

/// One of the paper's Section 7 experiments and the claims its results
/// must reproduce.
struct PaperExperiment {
    const char* name; ///< "Table 2", "Figure 2", "Table 3 (x5)", ...
    std::vector<ShapeCheck> (*check)(const SweepResult&);
};

/// The paper experiment a campaign runs, or nullptr for any other grid.
/// The header's heuristic list must equal the experiment's, order
/// included, and every other field the campaign fingerprint covers must
/// equal the experiment's except the scenario count, the trial count and
/// the master seed:
///  - Table 2: all seventeen heuristics (core::all_heuristic_names()) on
///    the default Table-1 grid (the SweepConfig defaults);
///  - Figure 2: {mct, mct*, emct, emct*, ud*, lw*} on the same grid;
///  - Table 3 (x5) and (x10): the eight greedy heuristics on tasks {20},
///    ncom {5}, wmin {1}, with Tdata = 5 x wmin and Tprog = 25 x wmin, or
///    10 and 50.
const PaperExperiment* find_paper_experiment(const CampaignHeader& header);

/// Renders one line per check: "[PASS] description (lhs vs rhs)".
std::string render_checks(const std::vector<ShapeCheck>& checks);

/// True when every check passed.
bool all_passed(const std::vector<ShapeCheck>& checks);

} // namespace volsched::exp
