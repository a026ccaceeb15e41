#include "exp/dfb.hpp"

#include <algorithm>
#include <stdexcept>

namespace volsched::exp {

DfbTable::DfbTable(std::size_t num_heuristics)
    : dfb_(num_heuristics), makespan_(num_heuristics),
      wins_(num_heuristics, 0) {}

void DfbTable::add_instance(const std::vector<long long>& makespans) {
    if (makespans.size() != dfb_.size())
        throw std::invalid_argument("DfbTable: heuristic count mismatch");
    if (makespans.empty())
        throw std::invalid_argument("DfbTable: instance has no makespans");
    const long long best =
        *std::min_element(makespans.begin(), makespans.end());
    if (best <= 0)
        throw std::invalid_argument("DfbTable: non-positive makespan");
    for (std::size_t h = 0; h < makespans.size(); ++h) {
        const double dfb = 100.0 *
                           static_cast<double>(makespans[h] - best) /
                           static_cast<double>(best);
        dfb_[h].add(dfb);
        makespan_[h].add(static_cast<double>(makespans[h]));
        if (makespans[h] == best) ++wins_[h];
    }
    ++instances_;
}

void DfbTable::merge(const DfbTable& other) {
    if (other.dfb_.size() != dfb_.size())
        throw std::invalid_argument("DfbTable: merge arity mismatch");
    for (std::size_t h = 0; h < dfb_.size(); ++h) {
        dfb_[h].merge(other.dfb_[h]);
        makespan_[h].merge(other.makespan_[h]);
        wins_[h] += other.wins_[h];
    }
    instances_ += other.instances_;
}

} // namespace volsched::exp
