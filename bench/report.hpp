#pragma once
/// \file report.hpp
/// Shared table / CSV rendering for the benchmark harnesses and the
/// campaign tool.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "exp/dfb.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace volsched::benchtool {

/// Prints a paper-style "Algorithm / Average dfb / #wins" table, sorted by
/// ascending mean dfb (best first), like the paper's Table 2 and Table 3.
inline void print_dfb_table(const std::string& title,
                            const std::vector<std::string>& heuristics,
                            const exp::DfbTable& table, bool show_wins) {
    std::vector<std::size_t> order(heuristics.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return table.mean_dfb(a) < table.mean_dfb(b);
    });

    std::vector<std::string> header = {"Algorithm", "Average dfb", "+/-95%"};
    if (show_wins) header.push_back("#wins");
    util::TextTable out(header);
    for (std::size_t c = 1; c < header.size(); ++c) out.align_right(c);
    for (std::size_t h : order) {
        std::vector<std::string> row = {
            heuristics[h], util::TextTable::num(table.mean_dfb(h), 2),
            util::TextTable::num(util::ci95_halfwidth(table.dfb(h)), 2)};
        if (show_wins) row.push_back(std::to_string(table.wins(h)));
        out.add_row(std::move(row));
    }
    std::printf("%s", out.render(title).c_str());
    std::printf("(%lld problem instances)\n\n",
                static_cast<long long>(table.instances()));
}

/// Dumps per-heuristic aggregates to CSV (one row per heuristic).
inline void write_dfb_csv(const std::string& path,
                          const std::vector<std::string>& heuristics,
                          const exp::DfbTable& table) {
    std::ofstream out(path);
    util::CsvWriter csv(out, {"heuristic", "mean_dfb", "ci95", "wins",
                              "mean_makespan", "instances"});
    for (std::size_t h = 0; h < heuristics.size(); ++h)
        csv.row({heuristics[h], util::CsvWriter::cell(table.mean_dfb(h)),
                 util::CsvWriter::cell(util::ci95_halfwidth(table.dfb(h))),
                 util::CsvWriter::cell(static_cast<long long>(table.wins(h))),
                 util::CsvWriter::cell(table.makespan(h).mean()),
                 util::CsvWriter::cell(
                     static_cast<long long>(table.instances()))});
    std::printf("wrote %s\n", path.c_str());
}

} // namespace volsched::benchtool
