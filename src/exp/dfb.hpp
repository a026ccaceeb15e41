#pragma once
/// \file dfb.hpp
/// The paper's evaluation metric (Section 7): per-instance degradation from
/// best — the percentage relative difference between a heuristic's makespan
/// and the best makespan achieved on that instance — plus win counting
/// (being (tied-)best on an instance counts as a win).

#include <vector>

#include "util/stats.hpp"

namespace volsched::exp {

/// Accumulates dfb and wins across instances for a fixed heuristic list.
class DfbTable {
public:
    explicit DfbTable(std::size_t num_heuristics);

    /// Ingests one instance's makespans (index-aligned with the heuristic
    /// list).  An empty list and zero/negative makespans are invalid and
    /// throw std::invalid_argument.
    void add_instance(const std::vector<long long>& makespans);

    /// Merges another table (parallel sweep reduction).
    void merge(const DfbTable& other);

    [[nodiscard]] std::size_t num_heuristics() const noexcept {
        return dfb_.size();
    }
    [[nodiscard]] long long instances() const noexcept { return instances_; }
    [[nodiscard]] double mean_dfb(std::size_t h) const { return dfb_[h].mean(); }
    [[nodiscard]] const util::Accumulator& dfb(std::size_t h) const {
        return dfb_[h];
    }
    [[nodiscard]] long long wins(std::size_t h) const { return wins_[h]; }
    [[nodiscard]] const util::Accumulator& makespan(std::size_t h) const {
        return makespan_[h];
    }

private:
    std::vector<util::Accumulator> dfb_;
    std::vector<util::Accumulator> makespan_;
    std::vector<long long> wins_;
    long long instances_ = 0;
};

} // namespace volsched::exp
