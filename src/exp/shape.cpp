#include "exp/shape.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/factory.hpp"
#include "exp/campaign.hpp"

namespace volsched::exp {
namespace {

/// Index of `name` in the sweep's heuristic list; throws when missing so a
/// mis-wired bench fails loudly rather than checking the wrong column.
std::size_t index_of(const SweepResult& result, const std::string& name) {
    for (std::size_t h = 0; h < result.heuristics.size(); ++h)
        if (result.heuristics[h] == name) return h;
    throw std::invalid_argument("shape check: heuristic '" + name +
                                "' not in this sweep");
}

double dfb_of(const SweepResult& result, const std::string& name) {
    return result.overall.mean_dfb(index_of(result, name));
}

/// Mean dfb across a family of heuristic names.
double family_dfb(const SweepResult& result,
                  std::initializer_list<const char*> names) {
    double sum = 0.0;
    for (const char* name : names) sum += dfb_of(result, name);
    return sum / static_cast<double>(names.size());
}

ShapeCheck less_than(std::string description, double lhs, double rhs) {
    return {std::move(description), lhs < rhs, lhs, rhs};
}

/// The heuristic with the lowest overall mean dfb (the first on a tie).
const std::string& best_name(const SweepResult& result) {
    std::size_t best = 0;
    for (std::size_t h = 1; h < result.heuristics.size(); ++h)
        if (result.overall.mean_dfb(h) < result.overall.mean_dfb(best))
            best = h;
    return result.heuristics[best];
}

} // namespace

std::vector<ShapeCheck> check_table2_shape(const SweepResult& result) {
    std::vector<ShapeCheck> checks;
    const double emct = family_dfb(result, {"emct", "emct*"});
    const double mct = family_dfb(result, {"mct", "mct*"});
    const double ud = family_dfb(result, {"ud", "ud*"});
    const double lw = family_dfb(result, {"lw", "lw*"});
    checks.push_back(less_than("EMCT family beats MCT family", emct, mct));
    checks.push_back(less_than("MCT family beats UD family", mct, ud));
    checks.push_back(less_than("UD family beats LW family", ud, lw));

    for (const char* base : {"random1", "random2", "random3", "random4"}) {
        const std::string weighted = std::string(base) + "w";
        checks.push_back(less_than(weighted + " beats " + base,
                                   dfb_of(result, weighted),
                                   dfb_of(result, base)));
    }

    double worst_greedy = 0.0;
    for (const char* g : {"mct", "mct*", "emct", "emct*", "ud", "ud*", "lw",
                          "lw*"})
        worst_greedy = std::max(worst_greedy, dfb_of(result, g));
    double best_random = 1e300;
    for (const char* r : {"random", "random1", "random2", "random3",
                          "random4", "random1w", "random2w", "random3w",
                          "random4w"})
        best_random = std::min(best_random, dfb_of(result, r));
    checks.push_back(less_than("every greedy beats every random",
                               worst_greedy, best_random));

    long long emct_wins =
        result.overall.wins(index_of(result, "emct")) +
        result.overall.wins(index_of(result, "emct*"));
    long long max_other = 0;
    for (std::size_t h = 0; h < result.heuristics.size(); ++h) {
        if (result.heuristics[h] == "emct" || result.heuristics[h] == "emct*")
            continue;
        max_other = std::max(max_other, result.overall.wins(h));
    }
    checks.push_back(less_than("EMCT family collects the most wins",
                               static_cast<double>(max_other),
                               static_cast<double>(emct_wins)));
    return checks;
}

std::vector<ShapeCheck> check_figure2_shape(const SweepResult& result) {
    std::vector<ShapeCheck> checks;
    if (result.by_wmin.empty())
        throw std::invalid_argument("shape check: empty by_wmin series");
    const auto e = index_of(result, "emct");
    const auto m = index_of(result, "mct");
    const auto ud = index_of(result, "ud*");
    const auto lw = index_of(result, "lw*");

    bool crossover = false;
    for (const auto& [wmin, table] : result.by_wmin)
        crossover |= table.mean_dfb(e) < table.mean_dfb(m);
    checks.push_back({"EMCT dips below MCT at some wmin", crossover, 0, 0});

    // Upper half of the wmin range: EMCT below MCT on average.
    const int w_lo = result.by_wmin.begin()->first;
    const int w_hi = result.by_wmin.rbegin()->first;
    const int mid = (w_lo + w_hi) / 2;
    double emct_hi = 0, mct_hi = 0;
    int cells = 0;
    for (const auto& [wmin, table] : result.by_wmin) {
        if (wmin <= mid) continue;
        emct_hi += table.mean_dfb(e);
        mct_hi += table.mean_dfb(m);
        ++cells;
    }
    if (cells > 0)
        checks.push_back(less_than("EMCT below MCT on the large-wmin half",
                                   emct_hi / cells, mct_hi / cells));

    const auto& first = result.by_wmin.begin()->second;
    const auto& last = result.by_wmin.rbegin()->second;
    checks.push_back(less_than("UD* improves from wmin=min to wmin=max",
                               last.mean_dfb(ud), first.mean_dfb(ud)));
    checks.push_back(less_than("LW* improves from wmin=min to wmin=max",
                               last.mean_dfb(lw), first.mean_dfb(lw)));
    return checks;
}

std::vector<ShapeCheck> check_table3_x5_shape(const SweepResult& result) {
    const std::string& best = best_name(result);
    return {{"x5: an EMCT-family member is best (got " + best + ")",
             best == "emct" || best == "emct*", 0, 0}};
}

std::vector<ShapeCheck> check_table3_x10_shape(const SweepResult& result) {
    std::vector<ShapeCheck> checks;
    const std::string& best = best_name(result);
    checks.push_back({"x10: a UD-family member is best (got " + best + ")",
                      best == "ud" || best == "ud*", 0, 0});

    const double mct = dfb_of(result, "mct");
    double worst_other = 0.0, best_dfb = 1e300;
    for (const auto& h : result.heuristics) {
        best_dfb = std::min(best_dfb, dfb_of(result, h));
        if (h != "mct" && h != "mct*")
            worst_other = std::max(worst_other, dfb_of(result, h));
    }
    checks.push_back(less_than("x10: plain MCT worse than every non-MCT",
                               worst_other, mct));
    checks.push_back(less_than("x10: plain MCT at least 2x the best dfb",
                               2.0 * best_dfb, mct));
    return checks;
}

namespace {

/// A paper experiment with the heuristic list and grid that define it.
struct ExperimentGrid {
    PaperExperiment experiment;
    std::vector<std::string> heuristics;
    SweepConfig grid;
};

SweepConfig table3_grid(double factor) {
    SweepConfig grid;
    grid.tasks_values = {20};
    grid.ncom_values = {5};
    grid.wmin_values = {1};
    grid.tdata_factor = factor;
    grid.tprog_factor = 5.0 * factor;
    return grid;
}

const std::vector<ExperimentGrid>& experiment_grids() {
    static const std::vector<ExperimentGrid> grids = {
        {{"Table 2", check_table2_shape}, core::all_heuristic_names(), {}},
        {{"Figure 2", check_figure2_shape},
         {"mct", "mct*", "emct", "emct*", "ud*", "lw*"},
         {}},
        {{"Table 3 (x5)", check_table3_x5_shape},
         core::greedy_heuristic_names(),
         table3_grid(5.0)},
        {{"Table 3 (x10)", check_table3_x10_shape},
         core::greedy_heuristic_names(),
         table3_grid(10.0)},
    };
    return grids;
}

} // namespace

const PaperExperiment* find_paper_experiment(const CampaignHeader& header) {
    // parse_campaign_header has checked header.fingerprint against the
    // header's own grid and heuristics.
    for (const ExperimentGrid& e : experiment_grids()) {
        if (header.heuristics != e.heuristics) continue;
        // Size and seed pick a run of the experiment; every other
        // fingerprinted field defines it.
        SweepConfig grid = e.grid;
        grid.scenarios_per_cell = header.sweep.scenarios_per_cell;
        grid.trials_per_scenario = header.sweep.trials_per_scenario;
        grid.master_seed = header.sweep.master_seed;
        if (campaign_fingerprint(grid, e.heuristics) == header.fingerprint)
            return &e.experiment;
    }
    return nullptr;
}

std::string render_checks(const std::vector<ShapeCheck>& checks) {
    std::ostringstream os;
    for (const auto& c : checks) {
        os << (c.passed ? "[PASS] " : "[FAIL] ") << c.description;
        if (c.lhs != 0.0 || c.rhs != 0.0) {
            char buf[64];
            // volsched-lint: allow(R3): shape-check console diagnostic, not a record
            std::snprintf(buf, sizeof buf, "  (%.2f vs %.2f)", c.lhs, c.rhs);
            os << buf;
        }
        os << '\n';
    }
    return os.str();
}

bool all_passed(const std::vector<ShapeCheck>& checks) {
    return std::all_of(checks.begin(), checks.end(),
                       [](const ShapeCheck& c) { return c.passed; });
}

} // namespace volsched::exp
