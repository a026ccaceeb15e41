/// \file probes.cpp
/// Forwarding wrappers that measure the core and ckpt layers from outside
/// the engine.  They change no decision: every call goes to the wrapped
/// object with the same arguments, and the benchmark checks that traced and
/// untraced runs produce the same result digest.

#include <bit>
#include <cstdio>

#include "bench.hpp"

#include "api/registry.hpp"

namespace perfbench {

namespace va = volsched::api;
namespace vs = volsched::sim;

void Digest::add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }

std::uint64_t combine(const std::vector<std::uint64_t>& unit_digests) {
    Digest d;
    for (const std::uint64_t u : unit_digests) d.add(u);
    return d.value();
}

std::string hex(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

ProbeSink& ProbeSink::instance() {
    static ProbeSink sink;
    return sink;
}

void ProbeSink::reset() {
    std::lock_guard lock(mu_);
    totals_ = {};
}

void ProbeSink::fold(const ProbeTotals& t) {
    std::lock_guard lock(mu_);
    totals_.runs += t.runs;
    totals_.rounds += t.rounds;
    totals_.selects += t.selects;
    totals_.run_ns += t.run_ns;
    totals_.round_ns += t.round_ns;
    totals_.select_ns += t.select_ns;
    totals_.cache_hits += t.cache_hits;
    totals_.cache_misses += t.cache_misses;
    totals_.cache_invalidations += t.cache_invalidations;
    totals_.should_calls += t.should_calls;
    totals_.quiet_calls += t.quiet_calls;
    totals_.decide_ns += t.decide_ns;
}

ProbeTotals ProbeSink::snapshot() const {
    std::lock_guard lock(mu_);
    return totals_;
}

namespace {

/// One scheduler instance lives for exactly one Simulation::run in every
/// caller (exp::run_instance builds a fresh scheduler per run, and so does
/// this benchmark), so the span from the end of construction to destruction
/// is the run span.  Every run schedules at least one round.
class ProbeScheduler final : public vs::Scheduler {
public:
    explicit ProbeScheduler(std::unique_ptr<vs::Scheduler> inner)
        : inner_(std::move(inner)), born_ns_(now_ns()) {}
    ProbeScheduler(const ProbeScheduler&) = delete;
    ProbeScheduler& operator=(const ProbeScheduler&) = delete;

    ~ProbeScheduler() override {
        // Registries test-instantiate specs to validate them; an instance
        // that never scheduled a round was not a run.
        if (local_.rounds == 0) return;
        local_.runs = 1;
        local_.run_ns = now_ns() - born_ns_;
        const auto c = inner_->counters();
        local_.cache_hits = static_cast<long long>(c.cache_hits);
        local_.cache_misses = static_cast<long long>(c.cache_misses);
        local_.cache_invalidations =
            static_cast<long long>(c.cache_invalidations);
        ProbeSink::instance().fold(local_);
    }

    void begin_round(const vs::SchedView& view) override {
        const std::int64_t t0 = now_ns();
        inner_->begin_round(view);
        local_.round_ns += now_ns() - t0;
        ++local_.rounds;
    }

    vs::ProcId select(const vs::SchedView& view,
                      std::span<const vs::ProcId> eligible,
                      std::span<const int> nq,
                      volsched::util::Rng& rng) override {
        const std::int64_t t0 = now_ns();
        const vs::ProcId q = inner_->select(view, eligible, nq, rng);
        local_.select_ns += now_ns() - t0;
        ++local_.selects;
        return q;
    }

    [[nodiscard]] std::string_view name() const override {
        return inner_->name();
    }
    [[nodiscard]] vs::SchedulerCounters counters() const override {
        return inner_->counters();
    }

private:
    std::unique_ptr<vs::Scheduler> inner_;
    std::int64_t born_ns_;
    ProbeTotals local_;
};

} // namespace

void register_probe_stage() {
    auto& registry = va::SchedulerRegistry::instance();
    if (registry.contains("probe")) return;
    registry.add(va::SchedulerInfo{
        "probe",
        "benchmark probe: forwards to the inner heuristic, counting and "
        "timing begin_round/select",
        [](const va::SchedulerSpec& spec, const va::SchedulerRegistry& reg)
            -> std::unique_ptr<vs::Scheduler> {
            va::require_no_options(spec);
            return std::make_unique<ProbeScheduler>(reg.make(spec.inner()));
        },
        /*takes_inner=*/true});
}

std::vector<std::string> probed(const std::vector<std::string>& specs) {
    std::vector<std::string> out;
    out.reserve(specs.size());
    for (const auto& s : specs) out.push_back("probe:" + s);
    return out;
}

bool ProbeCheckpoint::should_checkpoint(
    const volsched::ckpt::CheckpointView& view) const {
    const std::int64_t t0 = now_ns();
    const bool fire = inner_.should_checkpoint(view);
    local_.decide_ns += now_ns() - t0;
    ++local_.should_calls;
    return fire;
}

long long ProbeCheckpoint::quiet_horizon(
    const volsched::ckpt::CheckpointView& view) const {
    const std::int64_t t0 = now_ns();
    const long long h = inner_.quiet_horizon(view);
    local_.decide_ns += now_ns() - t0;
    ++local_.quiet_calls;
    return h;
}

void ProbeCheckpoint::flush() const {
    ProbeSink::instance().fold(local_);
    local_ = {};
}

} // namespace perfbench
