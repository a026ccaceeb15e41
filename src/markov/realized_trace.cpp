#include "markov/realized_trace.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace volsched::markov {

namespace {

/// Minimum sampling chunk: small enough that short runs stay cheap, large
/// enough that the doubling growth amortizes the per-call overhead.
constexpr long long kMinChunk = 64;

/// Doubling growth target covering slot t.
long long grow_target(long long realized, long long t) {
    return std::max({t + 1, realized * 2, kMinChunk});
}

} // namespace

// ---------------------------------------------------------------------------
// RealizedTrace
// ---------------------------------------------------------------------------

RealizedTrace::RealizedTrace(std::unique_ptr<AvailabilityModel> model,
                             std::uint64_t stream_seed)
    : model_(std::move(model)), rng_(stream_seed) {
    if (!model_)
        throw std::invalid_argument("RealizedTrace: null availability model");
}

void RealizedTrace::ensure(long long horizon) {
    if (horizon <= realized_) return;
    if (realized_ == 0) {
        const ProcState s = model_->initial_state(rng_);
        segments_.push_back({s, 0, 1});
        realized_ = 1;
    }
    // Each advance() extends the last segment or opens a new one with its
    // final slot, and never samples past `horizon`.
    while (realized_ < horizon) {
        Segment& last = segments_.back();
        ProcState s = last.state;
        const long long limit = horizon - realized_;
        const long long n = model_->advance(s, limit, rng_);
        if (n < 1 || n > limit)
            throw std::logic_error(
                "AvailabilityModel::advance sampled no slot or past its limit");
        realized_ += n;
        if (s == last.state) {
            last.end = realized_;
        } else {
            last.end = realized_ - 1;
            segments_.push_back({s, realized_ - 1, realized_});
        }
    }
}

ProcState RealizedTrace::state_at(long long t) {
    if (t < 0) throw std::out_of_range("RealizedTrace::state_at: t < 0");
    if (t >= realized_) ensure(grow_target(realized_, t));
    const auto it = std::upper_bound(
        segments_.begin(), segments_.end(), t,
        [](long long slot, const Segment& seg) { return slot < seg.end; });
    return it->state;
}

// ---------------------------------------------------------------------------
// TraceCursor
// ---------------------------------------------------------------------------

ProcState TraceCursor::advance_to(long long t) {
    if (t >= trace_->realized_)
        trace_->ensure(grow_target(trace_->realized_, t));
    const auto& segs = trace_->segments_;
    assert(t >= segs[seg_].begin && "TraceCursor queries must be monotone");
    while (segs[seg_].end <= t) ++seg_;
    end_ = segs[seg_].end;
    state_ = segs[seg_].state;
    return state_;
}

long long TraceCursor::next_change_at(long long t, long long limit) {
    (void)state_at(t); // position seg_ on the segment containing t
    // While the segment containing t is the trace's open frontier segment,
    // keep sampling: either a different state closes it, or we hit `limit`.
    while (seg_ + 1 == trace_->segments_.size() &&
           trace_->segments_[seg_].end < limit)
        trace_->ensure(
            std::min(limit, grow_target(trace_->realized_, trace_->realized_)));
    return std::min(trace_->segments_[seg_].end, limit);
}

// ---------------------------------------------------------------------------
// RealizedTraces
// ---------------------------------------------------------------------------

RealizedTraces::RealizedTraces(
    const std::vector<std::unique_ptr<AvailabilityModel>>& models,
    std::uint64_t seed)
    : seed_(seed) {
    traces_.reserve(models.size());
    for (std::size_t q = 0; q < models.size(); ++q) {
        if (!models[q])
            throw std::invalid_argument("RealizedTraces: null model");
        traces_.emplace_back(models[q]->clone(),
                             util::mix_seed(seed, kAvailabilityStream, q));
    }
}

void RealizedTraces::ensure(long long horizon) {
    for (auto& trace : traces_) trace.ensure(horizon);
}

} // namespace volsched::markov
