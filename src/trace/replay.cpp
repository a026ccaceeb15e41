#include "trace/replay.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

namespace volsched::trace {

using markov::ProcState;

RecordedTrace record(const markov::AvailabilityModel& prototype,
                     std::size_t slots, util::Rng& rng) {
    RecordedTrace out;
    if (slots == 0) return out;
    out.states.reserve(slots);
    auto model = prototype.clone();
    ProcState s = model->initial_state(rng);
    out.states.push_back(s);
    while (out.states.size() < slots) {
        const ProcState run = s;
        const auto limit = static_cast<long long>(slots - out.states.size());
        const long long n = model->advance(s, limit, rng);
        if (n < 1 || n > limit)
            throw std::logic_error(
                "AvailabilityModel::advance sampled no slot or past its limit");
        out.states.insert(out.states.end(), static_cast<std::size_t>(n - 1),
                          run);
        out.states.push_back(s);
    }
    return out;
}

void write_traces(std::ostream& out, const std::vector<RecordedTrace>& traces) {
    out << "# volsched availability traces: one processor per line, "
           "u=UP r=RECLAIMED d=DOWN\n";
    for (const auto& tr : traces) {
        std::string line;
        line.reserve(tr.states.size());
        for (ProcState s : tr.states) line.push_back(markov::state_code(s));
        out << line << '\n';
    }
}

std::vector<RecordedTrace> read_traces(std::istream& in) {
    std::vector<RecordedTrace> traces;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        RecordedTrace tr;
        tr.states.reserve(line.size());
        for (char c : line) {
            if (c == '\r') continue;
            if (c != 'u' && c != 'r' && c != 'd')
                throw std::invalid_argument(
                    "read_traces: unexpected character in trace line");
            tr.states.push_back(markov::state_from_code(c));
        }
        traces.push_back(std::move(tr));
    }
    return traces;
}

ReplayAvailability::ReplayAvailability(RecordedTrace trace, EndPolicy policy)
    : trace_(std::move(trace)), policy_(policy) {
    if (trace_.states.empty())
        throw std::invalid_argument("ReplayAvailability: empty trace");
}

ProcState ReplayAvailability::initial_state(util::Rng&) {
    cursor_ = 0;
    return trace_.states[0];
}

ProcState ReplayAvailability::next_state(ProcState, util::Rng&) {
    ++cursor_;
    if (cursor_ >= trace_.states.size()) {
        if (policy_ == EndPolicy::HoldLast) {
            cursor_ = trace_.states.size() - 1;
        } else {
            cursor_ = 0;
        }
    }
    return trace_.states[cursor_];
}

std::unique_ptr<markov::AvailabilityModel> ReplayAvailability::clone() const {
    return std::make_unique<ReplayAvailability>(trace_, policy_);
}

} // namespace volsched::trace
