#include "sim/timeline.hpp"

#include <algorithm>
#include <sstream>

namespace volsched::sim {

namespace {

/// The code of one worker's slot (the table in timeline.hpp).
char code(const SlotActivity& activity) noexcept {
    if (activity.state == markov::ProcState::Down) return 'd';
    if (activity.state == markov::ProcState::Reclaimed) return 'r';
    const bool compute = activity.compute >= 0;
    const bool data = activity.recv >= 0;
    if (compute && data) return 'B';
    if (compute) return 'C';
    if (activity.ckpt) return 'K';
    if (data) return 'D';
    if (activity.recv == -2) return 'P';
    return '.';
}

} // namespace

void Timeline::begin_run(const Platform& platform) {
    rows_.assign(static_cast<std::size_t>(platform.size()), std::string{});
}

void Timeline::on_slot(long long /*t*/, SlotRow row) {
    for (std::size_t q = 0; q < rows_.size(); ++q)
        rows_[q].push_back(code(row[q]));
}

char Timeline::at(ProcId proc, long long slot) const noexcept {
    if (proc < 0 || proc >= procs()) return '\0';
    if (slot < 0 || slot >= static_cast<long long>(rows_[proc].size()))
        return '\0';
    return rows_[proc][static_cast<std::size_t>(slot)];
}

std::string Timeline::render(long long first, long long last) const {
    std::ostringstream os;
    const long long end =
        (last < 0) ? slots() : std::min<long long>(last, slots());
    const long long begin_slot = std::clamp<long long>(first, 0, end);
    // Ruler: a tick every 10 slots.
    os << "      ";
    for (long long t = begin_slot; t < end; ++t)
        os << (t % 10 == 0 ? '|' : ' ');
    os << '\n';
    for (int q = 0; q < procs(); ++q) {
        os << 'P' << q << (q < 10 ? "    " : "   ");
        os << rows_[q].substr(static_cast<std::size_t>(begin_slot),
                              static_cast<std::size_t>(end - begin_slot));
        os << '\n';
    }
    return os.str();
}

} // namespace volsched::sim
