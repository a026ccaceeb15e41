#pragma once
/// \file trace.hpp
/// Sim-time structured tracer: records engine activity as spans and
/// instants on a per-worker track set and exports Chrome trace-event JSON
/// (the `traceEvents` format) loadable in Perfetto / chrome://tracing.
///
/// Time base: 1 simulation slot = 1 trace microsecond (ts/dur fields are
/// slots verbatim), pid 0, and one thread id per (worker, lane):
///
///   tid 0                      the engine track (scheduler rounds,
///                              iteration boundaries, elided ranges)
///   tid 1 + 4*q + lane         worker q's lanes: availability state,
///                              master transfers (program/data), compute,
///                              checkpoint uploads
///
/// The tracer is an *observer* (sim::EngineObserver): it maps the engine's
/// Event stream, elided stretches and scheduling rounds onto these tracks,
/// allocates on its own heap, consumes no RNG, and never feeds anything
/// back — trace-on and trace-off runs are byte-identical in every other
/// output (pinned by tests/test_obs.cpp in both stepping cores).  Spans
/// carry sim-time only; wall-clock never appears here (rulebook R3).
///
/// Attach with SimulationBuilder::observe(&rec) or `volsched_sim
/// --trace-out FILE`; scripts/check_trace.py validates the export in CI.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "markov/state.hpp"
#include "sim/observer.hpp"

namespace volsched::obs {

class TraceRecorder : public sim::EngineObserver {
public:
    /// Starts a run: resets all lane state and emits the thread_name
    /// metadata for every track of the platform's workers.
    void begin_run(const sim::Platform& platform) override;

    /// Ends the run at `end_slot` (exclusive; the makespan): every still-
    /// open span — activity interrupted by the horizon, and each worker's
    /// final availability state — is closed there.
    void end_run(long long end_slot) override;

    /// Maps one engine event onto the worker's lanes.
    void on_event(const sim::Event& e) override;

    /// Records the elided range [from, to) on the engine track (`dead`
    /// marks an all-workers-absent stretch).
    void on_inert(long long from, long long to, bool dead,
                  sim::SlotRow /*row*/) override;

    /// Records a "sched round" instant on the engine track.
    void on_round(long long t) override;

    /// Free-form run metadata (heuristic spec, seed, ...) rendered into the
    /// export's "otherData" object.
    void meta(const std::string& key, const std::string& value);

    /// Chrome trace-event JSON: {"traceEvents":[...],"otherData":{...}}.
    /// Events are emitted in non-decreasing ts order (metadata first).
    void write_json(std::ostream& out) const;
    [[nodiscard]] std::string json() const;

    /// Recorded events so far (spans count once, when closed).
    [[nodiscard]] std::size_t size() const noexcept {
        return events_.size();
    }

private:
    /// Per-worker lanes; tid = 1 + 4*proc + lane.
    enum Lane : int {
        kLaneAvail = 0,    ///< up / reclaimed / down state spans
        kLaneTransfer = 1, ///< program + data downloads from the master
        kLaneCompute = 2,  ///< task computation
        kLaneCkpt = 3,     ///< checkpoint snapshot uploads
    };

    struct TraceEvent {
        long long ts = 0;
        long long dur = -1; ///< >= 0 for ph 'X' only
        int tid = 0;
        char ph = 'X'; ///< 'X' complete, 'i' instant, 'M' metadata
        std::string name;
        std::string args_json; ///< preformatted {"..."} or empty
    };
    struct OpenSpan {
        bool active = false;
        long long ts = 0;
        std::string name;
        std::string args_json;
    };

    [[nodiscard]] int tid_of(int proc, Lane lane) const noexcept {
        return 1 + 4 * proc + static_cast<int>(lane);
    }
    OpenSpan& open(int proc, Lane lane) {
        return open_[static_cast<std::size_t>(tid_of(proc, lane))];
    }
    void close_span(OpenSpan& span, int tid, long long end_exclusive,
                    std::string extra_args);
    void thread_name(int tid, std::string name);

    /// Opens a span on (proc, lane) at `slot`; an already-open span on the
    /// lane is closed end-exclusive at `slot` first (state handoff).
    /// `args_json` is an optional preformatted JSON object ("{\"task\":3}").
    void span_begin(long long slot, int proc, Lane lane, const char* name,
                    std::string args_json = {});

    /// Closes the open span on (proc, lane), slot-inclusive: an activity
    /// whose completion event fires in slot s occupied s itself, so
    /// dur = s + 1 - begin.  No-op when nothing is open.
    void span_end(long long slot, int proc, Lane lane);

    /// Cuts the open span on (proc, lane), slot-exclusive: the interrupting
    /// event (crash, cancellation) happens *before* the activity could use
    /// slot s, so dur = s - begin.  Tags the span with {"outcome": ...}.
    /// No-op when nothing is open.
    void span_cut(long long slot, int proc, Lane lane, const char* outcome);

    /// Instantaneous marker on a worker lane / on the engine track.
    void instant(long long slot, int proc, Lane lane, const char* name);
    void instant_engine(long long slot, const char* name);

    /// Availability handoff on the avail lane.  DOWN also cuts the three
    /// activity lanes with outcome "lost" — a crash ends everything in
    /// flight, including the in-flight program download that has no Event
    /// of its own.
    void state_change(long long slot, int proc, markov::ProcState state);

    int procs_ = 0;
    int t_data_ = 0; ///< the platform's data cost: 0 means free transfers
    std::vector<TraceEvent> events_;
    std::vector<OpenSpan> open_; ///< indexed by tid (slot 0 unused)
    std::vector<std::pair<std::string, std::string>> meta_;
};

} // namespace volsched::obs
