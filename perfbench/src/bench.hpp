#pragma once
/// \file bench.hpp
/// Shared vocabulary of the perfbench binary: the clock, the result digest,
/// the probe wrappers that time scheduler and checkpoint calls from outside
/// the engine, and the workload interface main.cpp drives.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/policy.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double seconds_since(std::int64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// FNV-1a over 64-bit words: order-sensitive, so equal digests mean the same
/// values in the same order.
class Digest {
public:
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffU;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add_signed(long long v) { add(static_cast<std::uint64_t>(v)); }
    void add_double(double v);
    void add_text(std::string_view s) {
        for (const char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ULL;
        }
        add(s.size());
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v);

/// Scheduler and checkpoint call totals gathered by the probe wrappers.
/// Runs on worker threads fold their totals in under a mutex when the probe
/// is destroyed, once per run.
struct ProbeTotals {
    long long runs = 0;
    long long rounds = 0;
    long long selects = 0;
    std::int64_t run_ns = 0;    ///< probe lifetime: the Simulation::run span
    std::int64_t round_ns = 0;  ///< inside begin_round
    std::int64_t select_ns = 0; ///< inside select
    long long cache_hits = 0;
    long long cache_misses = 0;
    long long cache_invalidations = 0;
    long long should_calls = 0;
    long long quiet_calls = 0;
    std::int64_t decide_ns = 0; ///< inside should_checkpoint + quiet_horizon
};

/// Process-wide sink of probe totals; reset() before each traced pass.
class ProbeSink {
public:
    static ProbeSink& instance();
    void reset();
    void fold(const ProbeTotals& t);
    [[nodiscard]] ProbeTotals snapshot() const;

private:
    mutable std::mutex mu_;
    ProbeTotals totals_;
};

/// Registers the forwarding scheduler stage "probe" with the public
/// SchedulerRegistry, so "probe:emct" runs emct with every begin_round and
/// select counted and timed.  Idempotent.
void register_probe_stage();

/// "probe:" + spec for every spec.
std::vector<std::string> probed(const std::vector<std::string>& specs);

/// Forwarding checkpoint policy that counts and times should_checkpoint and
/// quiet_horizon.  Only for single-threaded runs: its counters are plain
/// fields, moved into the ProbeSink by flush().
class ProbeCheckpoint final : public volsched::ckpt::CheckpointPolicy {
public:
    explicit ProbeCheckpoint(const volsched::ckpt::CheckpointPolicy& inner)
        : inner_(inner) {}

    [[nodiscard]] bool
    should_checkpoint(const volsched::ckpt::CheckpointView& view) const override;
    [[nodiscard]] long long
    quiet_horizon(const volsched::ckpt::CheckpointView& view) const override;
    [[nodiscard]] std::string_view name() const override {
        return inner_.name();
    }
    void flush() const;

private:
    const volsched::ckpt::CheckpointPolicy& inner_;
    mutable ProbeTotals local_;
};

/// Work sizes: `Full` is the benchmark proper, `Tiny` the self-test.
enum class Size { Full, Tiny };

/// Exact work counters (name -> count); compared against the stored
/// reference, never treated as noise.
using Counters = std::map<std::string, long long>;

/// One unit of timed work and what it produced.
struct PassResult {
    double seconds = 0; ///< timed portion; verification is excluded
    /// The timed portion split into consecutive parts that recur in every
    /// pass of the unit (one per engine run); empty when it is not split.
    std::vector<double> parts;
    std::uint64_t digest = 0;
    long long instances = 0; ///< availability realizations raced by the set
    long long attempted = 0; ///< engine runs + records written/read + queries
    long long failed = 0;
    Counters counters;
    double readback_s = 0;      ///< stream-io: merge + query time
    long long readback_records = 0;
};

/// A named metric with its unit, as printed in reports and the result line.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// Per-layer report of a traced run: every metric plus the self-time table.
struct LayerReport {
    std::vector<Metric> metrics;
    std::vector<std::string> table; ///< self-time rows, preformatted
    std::vector<std::string> notes; ///< printed after the table
    std::uint64_t traced_digest = 0;
    std::uint64_t replay_digest = 0; ///< 0 when the workload has no replay
    Counters counters;               ///< exact counters the traced run adds
    long long attempted = 0;
    long long failed = 0;
};

/// One benchmark workload over a fixed pool of input units (each unit its
/// own seed-derived inputs).  setup() builds every unit's inputs (timed as
/// setup_s, repeatable); pass(u) performs unit u's timed work untraced;
/// traced() re-runs traced_units() through the probes and returns the
/// per-layer split.
class Workload {
public:
    virtual ~Workload() = default;
    [[nodiscard]] virtual int units() const = 0;
    /// Units the traced run covers, in order.
    [[nodiscard]] virtual std::vector<int> traced_units() const = 0;
    /// Whether an untimed pass of unit 0 precedes the timed loop.
    [[nodiscard]] virtual bool warm_up() const { return true; }
    virtual void setup() = 0;
    virtual PassResult pass(int unit) = 0;
    /// `untraced_rate` is instances_per_s over traced_units(), untraced.
    /// The report's traced digest combines the unit digests in order.
    virtual LayerReport traced(double untraced_rate) = 0;
};

/// Combines per-unit digests, in unit order, into one.
std::uint64_t combine(const std::vector<std::uint64_t>& unit_digests);

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size,
                                        const std::string& work_dir);

/// Pool threads for parallel campaigns: nproc minus the emitter thread,
/// capped at 3 so the count stays fixed across machines with 4 or more
/// cores.
int campaign_workers();

} // namespace perfbench
