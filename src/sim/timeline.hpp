#pragma once
/// \file timeline.hpp
/// Per-slot activity recording: one character per (processor, slot),
/// rendered as an ASCII Gantt chart.  Attach via EngineConfig::observers
/// (SimulationBuilder::observe).
///
/// Codes:
///   'd' DOWN   'r' RECLAIMED   '.' UP and idle
///   'P' receiving the program      'D' receiving task data
///   'C' computing                  'B' computing + receiving data
///   'K' uploading a checkpoint

#include <string>
#include <vector>

#include "sim/observer.hpp"
#include "sim/platform.hpp"

namespace volsched::sim {

class Timeline : public EngineObserver {
public:
    void begin_run(const Platform& platform) override;
    void on_slot(long long t, SlotRow row) override;

    [[nodiscard]] int procs() const noexcept {
        return static_cast<int>(rows_.size());
    }
    [[nodiscard]] long long slots() const noexcept {
        return rows_.empty() ? 0
                             : static_cast<long long>(rows_[0].size());
    }
    /// Code at (proc, slot); '\0' when out of range.
    [[nodiscard]] char at(ProcId proc, long long slot) const noexcept;

    /// Renders slots [first, last) as rows of characters with a slot ruler;
    /// last == -1 means "to the end".  Wide spans are rendered verbatim —
    /// callers choose the window.
    [[nodiscard]] std::string render(long long first = 0,
                                     long long last = -1) const;

private:
    std::vector<std::string> rows_;
};

} // namespace volsched::sim
