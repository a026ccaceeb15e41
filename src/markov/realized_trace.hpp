#pragma once
/// \file realized_trace.hpp
/// Realized availability traces: each processor's AvailabilityModel stream
/// is sampled **once** into a run-length-encoded (state, length) segment
/// sequence that every heuristic replays.  Before this layer existed the
/// engine re-sampled the whole realization from the seed on every
/// Simulation::run(), so a 19-heuristic instance paid for per-slot Markov
/// sampling 19 times; now the sampling cost is paid once per (seed, model)
/// and replay is a cursor walk over the segments.
///
/// Determinism contract: a realization is a pure function of the master
/// seed (stream = mix_seed(seed, kAvailabilityStream, processor)) and the
/// availability models — never of the heuristic, the thread, the shard, or
/// of *how* the trace is queried.  RNG consumption matches the engine's
/// historical per-slot sampling exactly (one initial_state draw, then the
/// draws of one next_state call per slot, per processor, on a dedicated
/// stream), so realizations are bit-identical to the pre-trace engine by
/// construction.  The trace samples one segment per
/// AvailabilityModel::advance call, whose contract is exactly those draws;
/// a semi-Markov model pays one jump per sojourn, not one call per slot.
/// Lazy chunked growth only changes *when* slots are sampled, not their
/// values: slot t depends on draws 0..t of the processor's private stream,
/// and each growth stops exactly at its horizon, even mid-sojourn.
///
/// The run-length encoding additionally answers "when does this processor
/// next change state?" in O(1), which the engine uses to fast-forward dead
/// stretches where every worker is DOWN or RECLAIMED (the next-event-style
/// skip used by simulators such as gacspp, without giving up the slot
/// model).

#include <cstdint>
#include <memory>
#include <vector>

#include "markov/availability.hpp"
#include "markov/state.hpp"
#include "util/rng.hpp"

namespace volsched::markov {

/// Stream-purpose tag for per-processor availability RNG streams; shared
/// with the engine so traces and (historical) in-engine sampling derive the
/// exact same xoshiro streams.
inline constexpr std::uint64_t kAvailabilityStream = 0x41564149ULL; // "AVAI"

/// One processor's realized availability as run-length-encoded segments.
/// Grow-only: querying beyond the realized horizon samples further slots
/// from the model; already-realized segments never change.  Not safe for
/// concurrent growth from multiple threads — share sequentially, or call
/// ensure() up front and read concurrently afterwards.
class RealizedTrace {
public:
    /// Half-open run of identical states: state over slots [begin, end).
    struct Segment {
        ProcState state = ProcState::Up;
        long long begin = 0;
        long long end = 0;

        [[nodiscard]] long long length() const noexcept { return end - begin; }
    };

    /// Takes ownership of a freshly-cloned model; `stream_seed` seeds the
    /// processor's private availability stream.
    RealizedTrace(std::unique_ptr<AvailabilityModel> model,
                  std::uint64_t stream_seed);

    /// Extends the realization to cover exactly slots [0, horizon), one
    /// AvailabilityModel::advance call per segment.  No-op when already
    /// realized that far.  Throws std::logic_error when the model's
    /// advance() samples no slot or more than it was asked for.
    void ensure(long long horizon);

    /// Slots realized so far.
    [[nodiscard]] long long realized() const noexcept { return realized_; }

    /// The RLE segments realized so far.  Contiguous, non-empty, adjacent
    /// segments hold different states; the last segment may still grow.
    [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
        return segments_;
    }

    /// Random-access state lookup (binary search); prefer TraceCursor for
    /// the engine's monotone per-slot walk.
    [[nodiscard]] ProcState state_at(long long t);

private:
    friend class TraceCursor;

    std::unique_ptr<AvailabilityModel> model_;
    util::Rng rng_;
    std::vector<Segment> segments_;
    long long realized_ = 0;
};

/// O(1)-amortized forward iteration over one RealizedTrace.  Each engine
/// run owns its own cursors; many cursors may walk one shared trace.
/// Queries must be slot-monotone (non-decreasing t), which is exactly the
/// engine's access pattern.
class TraceCursor {
public:
    explicit TraceCursor(RealizedTrace& trace) noexcept : trace_(&trace) {}

    /// State at slot t (t >= the previous query's t).  Extends the trace
    /// on demand with chunked doubling so n monotone queries cost O(n)
    /// sampling total.  Inline for the engine's per-slot common case, a
    /// query inside the current segment, which the cursor answers from its
    /// own copy of the segment's end and state.
    [[nodiscard]] ProcState state_at(long long t) {
        if (t < end_) return state_;
        return advance_to(t);
    }

    /// After state_at(t): a slot > t such that every slot in
    /// [t, segment_end()) has state_at(t)'s state — the end of the segment
    /// containing t as far as it is realized (the open frontier segment
    /// may still grow, so this bound is conservative).  Never samples.
    [[nodiscard]] long long segment_end() const noexcept { return end_; }

    /// First slot > t whose state differs from state_at(t), capped at
    /// `limit`: returns min(end of the segment containing t, limit).
    /// Extends the realization as needed (never past `limit` on account of
    /// this query alone).
    [[nodiscard]] long long next_change_at(long long t, long long limit);

    /// Rewind to slot 0 for a fresh monotone walk.
    void reset() noexcept {
        seg_ = 0;
        end_ = 0;
    }

private:
    /// state_at's out-of-segment path: extends the trace if needed, steps
    /// the cursor to the segment containing t and caches its end and state.
    ProcState advance_to(long long t);

    RealizedTrace* trace_;
    std::size_t seg_ = 0;
    /// End (so far: the open frontier segment may still grow) and state of
    /// segment seg_; zero until the first query.
    long long end_ = 0;
    ProcState state_ = ProcState::Up;
};

/// The full realization of one simulation: one RealizedTrace per
/// processor, streams derived exactly as the engine derives them
/// (mix_seed(seed, kAvailabilityStream, q)).  Immutable in value — growth
/// only materializes more of the same seed-determined realization — and
/// shared across every heuristic run on the instance.
class RealizedTraces {
public:
    /// Clones each model and seeds each processor's private stream from
    /// `seed`.  `models` must be non-null, one per processor.
    RealizedTraces(
        const std::vector<std::unique_ptr<AvailabilityModel>>& models,
        std::uint64_t seed);

    [[nodiscard]] int size() const noexcept {
        return static_cast<int>(traces_.size());
    }
    /// The seed the realization derives from (builder validation hook).
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

    [[nodiscard]] RealizedTrace& trace(int q) { return traces_[q]; }
    [[nodiscard]] const RealizedTrace& trace(int q) const {
        return traces_[q];
    }

    /// Realizes every processor's trace up to `horizon` slots; after this,
    /// concurrent read-only replay (cursors) of slots below `horizon` is
    /// safe.
    void ensure(long long horizon);

private:
    std::vector<RealizedTrace> traces_;
    std::uint64_t seed_ = 0;
};

} // namespace volsched::markov
