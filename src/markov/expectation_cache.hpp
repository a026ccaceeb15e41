#pragma once
/// \file expectation_cache.hpp
/// Memoized front-end for the closed-form reliability formulas of
/// expectation.hpp.  The paper's informed heuristics (EMCT/EMCT*, LW/LW*,
/// UD/UD*, hybrid) re-evaluate P+, E(up), E(W) and P_UD once per (worker,
/// slot) even though the inputs only depend on the worker's transition
/// matrix — which never changes during a run.  This cache keys every
/// quantity on the chain's identity (and, for the workload-parameterized
/// ones, on the exact bit pattern of `k`) so each value is computed once
/// per transition matrix instead of once per score evaluation.
///
/// Contract: **bit-identical by construction.**  Every getter returns the
/// exact double the corresponding `markov::` free function would return,
/// including the documented edge cases:
///  - absorbing RECLAIMED (`P_rr == 1`): `p_plus == P_uu`, `e_up` is 1 or
///    +infinity;
///  - `P+ == 0`: `e_up`/`e_workload` return +infinity, `log_p_plus`
///    returns -infinity;
///  - `workload <= 0` returns 0 and `workload <= 1` returns `workload`
///    from `e_workload` (no cache interaction at all, like the early
///    returns of the free function);
///  - `k <= 1` returns 1 and `k <= 2` returns `1 - P_ud` from
///    `p_ud_approx`, again before any memo lookup.
/// The memo key for `p_ud_approx` / `p_ud_exact` is the *exact* `k` (bit
/// pattern for doubles), a degenerate "bucket" that can never change a
/// returned value.
///
/// Invalidation: an entry is invalidated **only** when the chain's
/// transition matrix changes.  Identity is the `MarkovChain*` address;
/// each entry snapshots the 9 matrix probabilities and re-validates them
/// on every chain-keyed access, so address reuse (a chain destroyed and
/// another constructed at the same address) is detected and never serves
/// stale values.
///
/// Hot path: the scoring loops resolve each belief once per engine run
/// with pin() — one hash probe plus the matrix validation — and then read
/// every quantity through the returned Handle, which is a branch and a
/// load.  A Handle stays valid until the cache is cleared or the pinned
/// chain's entry is invalidated by a chain-keyed access.  Within one
/// engine run no belief's entry is invalidated (sim::SchedView::run fixes
/// the beliefs), so core::BeliefPins pins on a run's first round and keeps
/// the handles for the rest of the run unless the cache epoch moved; a new
/// run validates them again.
///
/// Thread-safety: none — one cache per scheduler instance.  The sweep and
/// campaign drivers construct schedulers per instance per worker thread
/// (`exp::run_instance` via the registry), so caches are never shared
/// across threads; the tsan preset runs the cache property tests to keep
/// it that way.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "markov/chain.hpp"
#include "markov/expectation.hpp"

namespace volsched::markov {

class ExpectationCache {
    struct Entry; // defined below; Handle needs the name first

public:
    /// A pinned, validated cache entry (see pin()).  A default-constructed
    /// Handle (null) must not be dereferenced — callers keep their
    /// existing `belief == nullptr` branches.
    class Handle {
        friend class ExpectationCache;
        Entry* entry = nullptr;
    };

    /// Resolve `chain` to its cache entry — one hash probe plus the
    /// matrix re-validation — and return a Handle for repeated cheap
    /// access.
    Handle pin(const MarkovChain& chain) {
        Handle h;
        h.entry = &entry(chain);
        return h;
    }

    /// Bumped by clear(), which frees every entry: a handle pinned at an
    /// earlier epoch may dangle.
    [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

    /// Lemma 1 P+ (== markov::p_plus bit-for-bit).
    double p_plus(const MarkovChain& chain);
    /// std::log(p_plus): -infinity when P+ == 0.  Cached so LW's score
    /// `-ct * log(P+)` costs one load instead of a log per worker.
    double log_p_plus(const MarkovChain& chain);
    /// Theorem 2 E(up) (== markov::e_up bit-for-bit).
    double e_up(const MarkovChain& chain);
    /// Theorem 2 E(W) (== markov::e_workload bit-for-bit); computed from
    /// the cached E(up) with the free function's exact branch structure.
    double e_workload(const MarkovChain& chain, double workload);
    /// Exact P_UD(k) (== markov::p_ud_exact bit-for-bit), memoized per k.
    double p_ud_exact(const MarkovChain& chain, unsigned k);
    /// Approximate P_UD(k) (== markov::p_ud_approx with the chain's own
    /// stationary weights, bit-for-bit), memoized per exact k bits.
    double p_ud_approx(const MarkovChain& chain, double k);
    /// First-passage expectations (== the markov:: functions bit-for-bit).
    double mean_time_to_down(const MarkovChain& chain);
    double mean_time_to_down_from_reclaimed(const MarkovChain& chain);
    double mean_recovery_time(const MarkovChain& chain);

    /// Handle-keyed twins of the getters above, bit-identical to both the
    /// chain-keyed getters and the free functions.  No hash probe, no
    /// re-validation: pin() already did both for this round.
    double p_plus(Handle h) { return scalar(*h.entry, kPPlus); }
    double log_p_plus(Handle h) { return scalar(*h.entry, kLogPPlus); }
    double e_up(Handle h) { return scalar(*h.entry, kEUp); }
    double e_workload(Handle h, double workload) {
        if (workload <= 0.0) return 0.0;
        if (workload <= 1.0) return workload;
        const double eu = scalar(*h.entry, kEUp);
        if (std::isinf(eu)) return std::numeric_limits<double>::infinity();
        return 1.0 + (workload - 1.0) * eu;
    }
    double p_ud_approx(Handle h, double k) {
        if (k <= 1.0) return 1.0;
        return p_ud_approx_entry(*h.entry, k);
    }

    /// Counter sanity: a miss is a fresh computation, a hit a memoized
    /// return (one call may count several, e.g. p_ud_approx touches both
    /// its per-chain ingredients and the per-k memo).  Early-outs that
    /// the free functions take before touching any chain quantity
    /// (`workload <= 1`, `k <= 1`) count as neither: no work avoided,
    /// none done.
    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
    /// Number of entries discarded because a chain's matrix changed (or
    /// its address was reused by a different chain).
    [[nodiscard]] std::uint64_t invalidations() const noexcept {
        return invalidations_;
    }
    /// Number of distinct chains currently cached.
    [[nodiscard]] std::size_t size() const noexcept {
        return entries_.size();
    }
    void clear() noexcept;

private:
    enum Scalar : std::size_t {
        kPPlus = 0,
        kLogPPlus,
        kEUp,
        kMeanTimeToDown,
        kMeanTimeToDownFromReclaimed,
        kMeanRecoveryTime,
        kScalarCount
    };

    /// Open-addressing memo for p_ud_approx's power term, keyed by the
    /// bit pattern of k.  Key 0 marks an empty slot — safe because only
    /// k > 2 reaches the memo, and +0.0 is the sole double with all-zero
    /// bits.  A plain power-of-two linear-probe table: a hit costs a
    /// handful of cycles where std::pow costs dozens.
    struct UdMemo {
        std::vector<std::uint64_t> keys;
        std::vector<double> vals;
        std::size_t count = 0;

        [[nodiscard]] static std::size_t slot_of(std::uint64_t key,
                                                 std::size_t mask) noexcept {
            return static_cast<std::size_t>(
                       (key * 0x9E3779B97F4A7C15ULL) >> 32) &
                   mask;
        }
        /// Returns the value slot for `key`, nullptr when absent.
        [[nodiscard]] const double* find(std::uint64_t key) const noexcept {
            if (keys.empty()) return nullptr;
            const std::size_t mask = keys.size() - 1;
            for (std::size_t s = slot_of(key, mask);; s = (s + 1) & mask) {
                if (keys[s] == key) return &vals[s];
                if (keys[s] == 0) return nullptr;
            }
        }
        void insert(std::uint64_t key, double value) {
            if (keys.empty() || 4 * (count + 1) > 3 * keys.size()) grow();
            const std::size_t mask = keys.size() - 1;
            std::size_t s = slot_of(key, mask);
            while (keys[s] != 0) s = (s + 1) & mask;
            keys[s] = key;
            vals[s] = value;
            ++count;
        }
        void grow() {
            const std::size_t cap = keys.empty() ? 16 : keys.size() * 2;
            std::vector<std::uint64_t> old_keys = std::move(keys);
            std::vector<double> old_vals = std::move(vals);
            keys.assign(cap, 0);
            vals.assign(cap, 0.0);
            const std::size_t mask = cap - 1;
            for (std::size_t i = 0; i < old_keys.size(); ++i) {
                if (old_keys[i] == 0) continue;
                std::size_t s = slot_of(old_keys[i], mask);
                while (keys[s] != 0) s = (s + 1) & mask;
                keys[s] = old_keys[i];
                vals[s] = old_vals[i];
            }
        }
    };

    struct Entry {
        TransitionMatrix matrix; // snapshot for change detection
        // Stationary weights snapshotted with the matrix (they are a pure
        // function of it), so handle accessors never chase the chain.
        double pi_u = 0.0;
        double pi_r = 0.0;
        double value[kScalarCount] = {};
        bool ready[kScalarCount] = {};
        // p_ud_approx ingredients (computed together on first use).
        bool ud_ready = false;
        bool ud_denom_ok = false;
        double ud_first = 0.0;
        double ud_per_slot = 0.0;
        std::unordered_map<unsigned, double> ud_exact;
        UdMemo ud_approx;
    };

    Entry& entry(const MarkovChain& chain);

    /// Exact (bitwise-equality) matrix comparison: invalidation must
    /// trigger on *any* change, and probabilities are never NaN in a
    /// validated chain.
    static bool same_matrix(const TransitionMatrix& a,
                            const TransitionMatrix& b) noexcept {
        return a.p_uu() == b.p_uu() && a.p_ur() == b.p_ur() &&
               a.p_ud() == b.p_ud() && a.p_ru() == b.p_ru() &&
               a.p_rr() == b.p_rr() && a.p_rd() == b.p_rd() &&
               a.p_du() == b.p_du() && a.p_dr() == b.p_dr() &&
               a.p_dd() == b.p_dd();
    }

    double scalar(Entry& e, Scalar which) {
        if (e.ready[which]) {
            ++hits_;
            return e.value[which];
        }
        const TransitionMatrix& m = e.matrix;
        double v = 0.0;
        switch (which) {
            case kPPlus: v = markov::p_plus(m); break;
            case kLogPPlus: v = std::log(markov::p_plus(m)); break;
            case kEUp: v = markov::e_up(m); break;
            case kMeanTimeToDown: v = markov::mean_time_to_down(m); break;
            case kMeanTimeToDownFromReclaimed:
                v = markov::mean_time_to_down_from_reclaimed(m);
                break;
            case kMeanRecoveryTime:
                v = markov::mean_recovery_time(m);
                break;
            case kScalarCount: break; // unreachable
        }
        e.value[which] = v;
        e.ready[which] = true;
        ++misses_;
        return v;
    }

    /// The shared post-`k <= 1` body of p_ud_approx, mirroring the free
    /// function's branch order exactly.
    double p_ud_approx_entry(Entry& e, double k) {
        if (!e.ud_ready) {
            e.ud_first = 1.0 - e.matrix.p_ud();
            const double denom = e.pi_u + e.pi_r;
            e.ud_denom_ok = denom > 0.0;
            e.ud_per_slot =
                e.ud_denom_ok
                    ? 1.0 - (e.matrix.p_ud() * e.pi_u +
                             e.matrix.p_rd() * e.pi_r) / denom
                    : 0.0;
            e.ud_ready = true;
            ++misses_;
        } else {
            ++hits_;
        }
        if (k <= 2.0) return e.ud_first;
        if (!e.ud_denom_ok) return 0.0;
        if (e.ud_per_slot <= 0.0) return 0.0;
        const std::uint64_t key = std::bit_cast<std::uint64_t>(k);
        if (const double* hit = e.ud_approx.find(key)) {
            ++hits_;
            return *hit;
        }
        const double v = e.ud_first * std::pow(e.ud_per_slot, k - 2.0);
        e.ud_approx.insert(key, v);
        ++misses_;
        return v;
    }

    std::unordered_map<const MarkovChain*, Entry> entries_;
    // Most-recently-used entry: pointers into entries_ stay valid across
    // inserts (node-based map); reset by clear().
    const MarkovChain* mru_chain_ = nullptr;
    Entry* mru_entry_ = nullptr;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t epoch_ = 0;
};

} // namespace volsched::markov
