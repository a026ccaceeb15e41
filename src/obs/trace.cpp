#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "sim/events.hpp"
#include "util/json.hpp"

namespace volsched::obs {
namespace {

using markov::ProcState;

/// The avail-lane span name of a state.
const char* span_name(ProcState state) noexcept {
    switch (state) {
    case ProcState::Up: return "up";
    case ProcState::Reclaimed: return "reclaimed";
    default: return "down";
    }
}

} // namespace

void TraceRecorder::thread_name(int tid, std::string name) {
    TraceEvent e;
    e.ts = 0;
    e.tid = tid;
    e.ph = 'M';
    e.name = "thread_name";
    e.args_json = "{\"name\":\"" + util::json::escape(name) + "\"}";
    events_.push_back(std::move(e));
}

void TraceRecorder::begin_run(const sim::Platform& platform) {
    const int procs = platform.size();
    procs_ = procs;
    t_data_ = platform.t_data;
    events_.clear();
    open_.assign(static_cast<std::size_t>(1 + 4 * procs), OpenSpan{});
    thread_name(0, "engine");
    for (int q = 0; q < procs; ++q) {
        // Built in place: g++ 12 reports a false -Wrestrict for
        // "p" + std::to_string(q) at -O2.
        std::string p = std::to_string(q);
        p.insert(p.begin(), 'p');
        p += ' ';
        thread_name(tid_of(q, kLaneAvail), p + "avail");
        thread_name(tid_of(q, kLaneTransfer), p + "xfer");
        thread_name(tid_of(q, kLaneCompute), p + "compute");
        thread_name(tid_of(q, kLaneCkpt), p + "ckpt");
    }
}

void TraceRecorder::close_span(OpenSpan& span, int tid,
                               long long end_exclusive,
                               std::string extra_args) {
    TraceEvent e;
    e.ts = span.ts;
    e.dur = std::max<long long>(0, end_exclusive - span.ts);
    e.tid = tid;
    e.ph = 'X';
    e.name = std::move(span.name);
    if (span.args_json.empty()) {
        e.args_json = std::move(extra_args);
    } else if (extra_args.empty()) {
        e.args_json = std::move(span.args_json);
    } else {
        // merge two preformatted one-level objects: {"a":1} + {"b":2}
        e.args_json = span.args_json.substr(0, span.args_json.size() - 1) +
                      "," + extra_args.substr(1);
    }
    span = OpenSpan{};
    events_.push_back(std::move(e));
}

void TraceRecorder::span_begin(long long slot, int proc, Lane lane,
                               const char* name, std::string args_json) {
    OpenSpan& span = open(proc, lane);
    if (span.active) close_span(span, tid_of(proc, lane), slot, {});
    span.active = true;
    span.ts = slot;
    span.name = name;
    span.args_json = std::move(args_json);
}

void TraceRecorder::span_end(long long slot, int proc, Lane lane) {
    OpenSpan& span = open(proc, lane);
    if (!span.active) return;
    close_span(span, tid_of(proc, lane), slot + 1, {});
}

void TraceRecorder::span_cut(long long slot, int proc, Lane lane,
                             const char* outcome) {
    OpenSpan& span = open(proc, lane);
    if (!span.active) return;
    close_span(span, tid_of(proc, lane), slot,
               std::string("{\"outcome\":\"") + outcome + "\"}");
}

void TraceRecorder::instant(long long slot, int proc, Lane lane,
                            const char* name) {
    TraceEvent e;
    e.ts = slot;
    e.tid = tid_of(proc, lane);
    e.ph = 'i';
    e.name = name;
    events_.push_back(std::move(e));
}

void TraceRecorder::instant_engine(long long slot, const char* name) {
    TraceEvent e;
    e.ts = slot;
    e.tid = 0;
    e.ph = 'i';
    e.name = name;
    events_.push_back(std::move(e));
}

void TraceRecorder::state_change(long long slot, int proc, ProcState state) {
    OpenSpan& avail = open(proc, kLaneAvail);
    if (avail.active) close_span(avail, tid_of(proc, kLaneAvail), slot, {});
    avail.active = true;
    avail.ts = slot;
    avail.name = span_name(state);
    if (state == ProcState::Down) {
        span_cut(slot, proc, kLaneTransfer, "lost");
        span_cut(slot, proc, kLaneCompute, "lost");
        span_cut(slot, proc, kLaneCkpt, "lost");
    }
}

void TraceRecorder::on_event(const sim::Event& e) {
    using sim::EventKind;
    const auto task_args = [&e] {
        std::string a = "{\"task\":" + std::to_string(e.logical) +
                        ",\"iter\":" + std::to_string(e.iteration);
        if (e.replica) a += ",\"replica\":true";
        a += "}";
        return a;
    };
    switch (e.kind) {
    case EventKind::StateChange:
        // A DOWN handoff also cuts the activity lanes ("lost") inside
        // state_change — this covers the in-flight program download a
        // crash wipes without emitting any WorkLost event.
        state_change(e.slot, e.proc, e.state);
        break;
    case EventKind::ProgStart:
        span_begin(e.slot, e.proc, kLaneTransfer, "prog");
        break;
    case EventKind::ProgComplete:
        span_end(e.slot, e.proc, kLaneTransfer);
        break;
    case EventKind::DataStart:
        // Zero-cost data transfers (t_data == 0) complete at their start
        // event and never emit DataComplete — record an instant so the
        // transfer lane is not left open.
        if (t_data_ == 0)
            instant(e.slot, e.proc, kLaneTransfer, "data (free)");
        else
            span_begin(e.slot, e.proc, kLaneTransfer, "data", task_args());
        break;
    case EventKind::DataComplete:
        span_end(e.slot, e.proc, kLaneTransfer);
        break;
    case EventKind::ComputeStart:
        // Promotion happens at end of slot s; the computation's first
        // advancing slot is s + 1 (and completions of slot s have already
        // closed the lane, so the handoff order is safe).
        span_begin(e.slot + 1, e.proc, kLaneCompute, "compute", task_args());
        break;
    case EventKind::TaskComplete:
        span_end(e.slot, e.proc, kLaneCompute);
        break;
    case EventKind::WorkLost:
        span_cut(e.slot, e.proc, kLaneTransfer, "lost");
        span_cut(e.slot, e.proc, kLaneCompute, "lost");
        break;
    case EventKind::ReplicaCommitted:
        instant(e.slot, e.proc, kLaneTransfer, "replica committed");
        break;
    case EventKind::ReplicaCancelled:
        span_cut(e.slot, e.proc, kLaneTransfer, "cancelled");
        span_cut(e.slot, e.proc, kLaneCompute, "cancelled");
        break;
    case EventKind::ProactiveCancel:
        span_cut(e.slot, e.proc, kLaneTransfer, "proactive");
        span_cut(e.slot, e.proc, kLaneCompute, "proactive");
        break;
    case EventKind::IterationComplete:
        instant_engine(e.slot, "iteration complete");
        break;
    case EventKind::CheckpointStart:
        span_begin(e.slot, e.proc, kLaneCkpt, "ckpt", task_args());
        break;
    case EventKind::CheckpointCommit:
        span_end(e.slot, e.proc, kLaneCkpt);
        break;
    case EventKind::CheckpointLost:
        span_cut(e.slot, e.proc, kLaneCkpt, "lost");
        break;
    case EventKind::Recovery:
        instant(e.slot, e.proc, kLaneCompute, "recovery");
        break;
    }
}

void TraceRecorder::on_round(long long t) { instant_engine(t, "sched round"); }

void TraceRecorder::on_inert(long long from, long long to, bool dead,
                             sim::SlotRow /*row*/) {
    TraceEvent e;
    e.ts = from;
    e.dur = std::max<long long>(0, to - from);
    e.tid = 0;
    e.ph = 'X';
    e.name = dead ? "elided (all down)" : "elided (inert)";
    events_.push_back(std::move(e));
}

void TraceRecorder::end_run(long long end_slot) {
    for (int q = 0; q < procs_; ++q) {
        for (Lane lane : {kLaneAvail, kLaneTransfer, kLaneCompute, kLaneCkpt}) {
            OpenSpan& span = open(q, lane);
            if (!span.active) continue;
            close_span(span, tid_of(q, lane), end_slot,
                       lane == kLaneAvail ? std::string{}
                                          : "{\"outcome\":\"horizon\"}");
        }
    }
    // Stable by ts: metadata (ts 0) floats to the front, spans that opened
    // earlier sort earlier, and same-slot events keep emission order —
    // deterministic for byte-identical reruns.
    std::stable_sort(events_.begin(), events_.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         if (a.ph == 'M' && b.ph != 'M') return true;
                         if (a.ph != 'M' && b.ph == 'M') return false;
                         return a.ts < b.ts;
                     });
}

void TraceRecorder::write_json(std::ostream& out) const {
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& e : events_) {
        if (!first) out << ",";
        first = false;
        out << "\n{\"name\":\"" << util::json::escape(e.name)
            << "\",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts
            << ",\"pid\":0,\"tid\":" << e.tid;
        if (e.ph == 'X') out << ",\"dur\":" << e.dur;
        if (e.ph == 'i') out << ",\"s\":\"t\"";
        if (!e.args_json.empty()) out << ",\"args\":" << e.args_json;
        out << "}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
    first = true;
    for (const auto& [key, value] : meta_) {
        if (!first) out << ",";
        first = false;
        out << "\"" << util::json::escape(key) << "\":\""
            << util::json::escape(value) << "\"";
    }
    out << "}}\n";
}

std::string TraceRecorder::json() const {
    std::ostringstream out;
    write_json(out);
    return out.str();
}

void TraceRecorder::meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, value);
}

} // namespace volsched::obs
