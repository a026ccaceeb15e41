#pragma once
/// \file replay.hpp
/// Recorded availability traces: capture, (de)serialization, and an
/// AvailabilityModel that replays a trace slot by slot.  This is the code
/// path one would use with Failure Trace Archive data (the paper's stated
/// empirical next step); here traces come from our own generators.

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "markov/availability.hpp"

namespace volsched::trace {

/// One processor's availability, one ProcState per slot.
struct RecordedTrace {
    std::vector<markov::ProcState> states;

    [[nodiscard]] std::size_t length() const noexcept { return states.size(); }
};

/// Samples `slots` slots from a (clone of a) prototype model, one run of
/// identical states per AvailabilityModel::advance call: the same states
/// and draws as one next_state call per slot.
RecordedTrace record(const markov::AvailabilityModel& prototype,
                     std::size_t slots, util::Rng& rng);

/// Serializes traces as lines of 'u'/'r'/'d' characters, one processor per
/// line; `#`-prefixed lines are comments.
void write_traces(std::ostream& out, const std::vector<RecordedTrace>& traces);
std::vector<RecordedTrace> read_traces(std::istream& in);

/// Replays a recorded trace.  Past the end of the trace the behaviour is
/// either to hold the last state (`HoldLast`) or wrap around (`Loop`).
class ReplayAvailability final : public markov::AvailabilityModel {
public:
    enum class EndPolicy { HoldLast, Loop };

    explicit ReplayAvailability(RecordedTrace trace,
                                EndPolicy policy = EndPolicy::Loop);

    markov::ProcState initial_state(util::Rng& rng) override;
    markov::ProcState next_state(markov::ProcState current,
                                 util::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<markov::AvailabilityModel> clone() const override;

private:
    RecordedTrace trace_;
    EndPolicy policy_;
    std::size_t cursor_ = 0;
};

} // namespace volsched::trace
