/// \file workloads.cpp
/// The four benchmark workloads.  Every layer is driven and measured through
/// public entry points only: the campaign API (run_campaign,
/// run_parallel_campaign, merge_shards, query_shards), exp::realize and
/// exp::run_instance, Simulation::run, RealizedTraces::ensure, the
/// SchedulerRegistry (for the probe stage) and the obs::Registry histograms
/// a campaign records into when a registry is installed.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

#include "api/registry.hpp"
#include "ckpt/registry.hpp"
#include "core/factory.hpp"
#include "exp/campaign.hpp"
#include "exp/index_sink.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "markov/realized_trace.hpp"
#include "obs/registry.hpp"
#include "sim/engine.hpp"
#include "trace/semi_markov.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace va = volsched::api;
namespace ve = volsched::exp;
namespace vm = volsched::markov;
namespace vs = volsched::sim;
namespace vt = volsched::trace;
namespace vu = volsched::util;

namespace {

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// RunMetrics counters summed over runs.
struct RunTally {
    long long runs = 0;
    long long slots = 0;
    long long elided = 0;
    long long dead = 0;
    long long committed = 0;
    long long recoveries = 0;
    long long cache_hits = 0;
    long long cache_misses = 0;
    long long cache_invalidations = 0;
    long long incomplete = 0;

    void add(const vs::RunMetrics& m) {
        ++runs;
        slots += m.makespan;
        elided += m.slots_elided;
        dead += m.dead_slots_skipped;
        committed += m.checkpoints_committed;
        recoveries += m.recoveries;
        cache_hits += m.cache_hits;
        cache_misses += m.cache_misses;
        cache_invalidations += m.cache_invalidations;
        if (!m.completed) ++incomplete;
    }

    RunTally& operator+=(const RunTally& o) {
        runs += o.runs;
        slots += o.slots;
        elided += o.elided;
        dead += o.dead;
        committed += o.committed;
        recoveries += o.recoveries;
        cache_hits += o.cache_hits;
        cache_misses += o.cache_misses;
        cache_invalidations += o.cache_invalidations;
        incomplete += o.incomplete;
        return *this;
    }
};

void add_metric(LayerReport& r, std::string name, double v, const char* unit) {
    r.metrics.push_back({std::move(name), v, unit});
}

void add_row(LayerReport& r, const char* layer, double span_ms,
             double child_ms) {
    char line[128];
    std::snprintf(line, sizeof line, "%-18s %12.1f %12.1f %12.1f", layer,
                  span_ms, child_ms, span_ms - child_ms);
    r.table.emplace_back(line);
}

/// The sim, core, markov-cache and ckpt split shared by every workload:
/// probe totals of a traced pass plus the exact RunMetrics counters of the
/// same runs.  `run_ns` is the summed Simulation::run span.
void add_engine_layers(LayerReport& r, const ProbeTotals& p,
                       const RunTally& t, std::int64_t run_ns,
                       double overhead) {
    const std::int64_t child_ns = p.round_ns + p.select_ns + p.decide_ns;
    const std::int64_t self_ns = run_ns - child_ns;
    const long long stepped = t.slots - t.elided;
    const auto count = [&](const char* name, long long v) {
        add_metric(r, name, static_cast<double>(v), "count");
        r.counters[name] = v;
    };
    count("sim.runs", t.runs);
    count("sim.slots", t.slots);
    count("sim.slots_elided", t.elided);
    add_metric(r, "sim.elided_frac", ratio(t.elided, t.slots), "ratio");
    count("sim.dead_slots_skipped", t.dead);
    add_metric(r, "sim.run_ms.total", ms(run_ns), "ms");
    add_metric(r, "sim.self_ms", ms(self_ns), "ms");
    add_metric(r, "sim.ns_per_stepped_slot",
               ratio(static_cast<double>(self_ns), stepped), "ns");
    count("core.rounds", p.rounds);
    count("core.selects", p.selects);
    add_metric(r, "core.selects_per_round", ratio(p.selects, p.rounds),
               "ratio");
    add_metric(r, "core.rounds_per_slot", ratio(p.rounds, stepped), "ratio");
    add_metric(r, "core.round_ms.total", ms(p.round_ns), "ms");
    add_metric(r, "core.select_ms.total", ms(p.select_ns), "ms");
    add_metric(r, "core.ns_per_select",
               ratio(static_cast<double>(p.select_ns), p.selects), "ns");
    count("markov.cache_hits", t.cache_hits);
    count("markov.cache_misses", t.cache_misses);
    count("markov.cache_invalidations", t.cache_invalidations);
    add_metric(r, "markov.cache_hit_frac",
               ratio(t.cache_hits, t.cache_hits + t.cache_misses), "ratio");
    count("ckpt.should_calls", p.should_calls);
    count("ckpt.quiet_calls", p.quiet_calls);
    count("ckpt.checkpoints_committed", t.committed);
    count("ckpt.recoveries", t.recoveries);
    add_metric(r, "obs.trace_overhead_frac", overhead, "ratio");

    // The probes read the cache counters the schedulers report; they must
    // agree exactly with the engine's per-run deltas.
    if (p.cache_hits != t.cache_hits || p.cache_misses != t.cache_misses ||
        p.runs != t.runs) {
        std::printf("verify: probe saw %lld runs, %lld/%lld cache hits/"
                    "misses; run metrics say %lld, %lld/%lld\n",
                    p.runs, p.cache_hits, p.cache_misses, t.runs, t.cache_hits,
                    t.cache_misses);
        ++r.failed;
    }
    add_row(r, "sim.run", ms(run_ns), ms(child_ns));
    add_row(r, "core.begin_round", ms(p.round_ns), 0);
    add_row(r, "core.select", ms(p.select_ns), 0);
    add_row(r, "ckpt.decide", ms(p.decide_ns), 0);
}

/// Campaign counters the direct-engine workloads report as zero, so every
/// workload prints the same per-layer names.
void add_no_campaign(LayerReport& r) {
    for (const char* name : {"exp.records_written", "exp.records_read",
                             "exp.fsyncs", "exp.index_rebuilds"})
        add_metric(r, name, 0, "count");
    add_metric(r, "exp.jsonl_bytes", 0, "bytes");
    add_metric(r, "exp.idx_bytes", 0, "bytes");
}

double overhead_frac(double traced_rate, double untraced_rate) {
    return untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0;
}

// ---------------------------------------------------------------------------
// Campaign workloads: table1 and stream-io
// ---------------------------------------------------------------------------

void digest_table(Digest& d, const ve::DfbTable& t) {
    d.add_signed(t.instances());
    for (std::size_t h = 0; h < t.num_heuristics(); ++h) {
        d.add_double(t.dfb(h).mean());
        d.add_double(t.dfb(h).max());
        d.add_double(t.makespan(h).mean());
        d.add_signed(t.wins(h));
    }
}

std::uint64_t tables_digest(const ve::SweepResult& r) {
    Digest d;
    digest_table(d, r.overall);
    for (const auto& [k, t] : r.by_wmin) {
        d.add_signed(k);
        digest_table(d, t);
    }
    for (const auto& [k, t] : r.by_tasks) {
        d.add_signed(k);
        digest_table(d, t);
    }
    for (const auto& [k, t] : r.by_ncom) {
        d.add_signed(k);
        digest_table(d, t);
    }
    for (const auto& [k, t] : r.by_checkpoint) {
        d.add_text(k);
        digest_table(d, t);
    }
    return d.value();
}

/// The fixed query filters stream-io reads back with.
std::vector<ve::QueryFilter> readback_queries() {
    std::vector<ve::QueryFilter> q(4);
    q[0].wmin = std::pair{2, 2};
    q[1].tasks = std::pair{2, 2};
    q[2].ncom = std::pair{1, 1};
    q[2].wmin = std::pair{1, 1};
    q[3].ordinal = std::pair<std::uint64_t, std::uint64_t>{0, 99};
    return q;
}

bool matches(const ve::QueryFilter& f, const ve::InstanceRecord& r) {
    const auto in = [](const auto& range, auto v) {
        return !range || (v >= range->first && v <= range->second);
    };
    return in(f.ordinal, r.scenario_ordinal) && in(f.wmin, r.scenario.wmin) &&
           in(f.tasks, r.scenario.tasks) && in(f.ncom, r.scenario.ncom);
}

struct CampaignShape {
    ve::SweepConfig sweep;
    std::vector<std::uint64_t> master_seeds; ///< one grid per input unit
    std::vector<std::string> specs;
    int shards = 1;
    int checkpoint_jobs = 8;
    bool readback = false; ///< query_shards after the merge (stream-io)
    bool warm_up = true;
    int workers = 1; ///< pool threads of the timed campaigns
};

/// Wall-clock stages of one campaign pass, the registry histograms included.
struct CampaignStages {
    double campaign_s = 0; ///< run_campaign / run_parallel_campaign
    double merge_s = 0;
    double query_s = 0;
    std::int64_t run_us = 0; ///< summed job compute (campaign.run_us)
    std::int64_t serialize_us = 0;
    std::int64_t fsync_us = 0;
};

/// What a set of records implies, computed independently of the sinks.
struct RecordCheck {
    std::uint64_t digest = 0; ///< records + reduction + query lines
    std::uint64_t tables = 0; ///< canonical reduction of the records
    std::vector<std::string> query_lines;
    long long bad = 0;
};

class CampaignWorkload final : public Workload {
public:
    CampaignWorkload(CampaignShape shape, fs::path dir)
        : shape_(std::move(shape)), dir_(std::move(dir)) {}

    [[nodiscard]] int units() const override {
        return static_cast<int>(shape_.master_seeds.size());
    }
    [[nodiscard]] std::vector<int> traced_units() const override { return {0}; }
    [[nodiscard]] bool warm_up() const override { return shape_.warm_up; }

    void setup() override {
        for (const auto& s : shape_.specs)
            va::SchedulerRegistry::instance().validate(s);
        // Each unit's inputs: its grid and every cell's platform and chains.
        jobs_.clear();
        realize_ns_ = 0;
        for (int u = 0; u < units(); ++u) {
            const ve::SweepConfig sweep = sweep_of(u);
            (void)ve::campaign_fingerprint(sweep, shape_.specs);
            jobs_.push_back(ve::grid_jobs(sweep));
            for (const auto& job : jobs_.back()) {
                const std::int64_t t0 = now_ns();
                const auto rs = ve::realize(job.scenario);
                if (u == 0) realize_ns_ += now_ns() - t0;
                if (!rs.platform.validate().empty())
                    throw std::runtime_error("invalid platform in job " +
                                             std::to_string(job.ordinal));
            }
        }
        fs::create_directories(dir_);
    }

    PassResult pass(int unit) override {
        CampaignStages stages;
        PassResult r =
            run(unit, shape_.specs, dir_ / "untraced", stages, shape_.workers);
        if (unit == 0) {
            stages_ = stages;
            unit0_counters_ = r.counters;
        }
        return r;
    }

    LayerReport traced(double untraced_rate) override;

private:
    [[nodiscard]] ve::SweepConfig sweep_of(int unit) const {
        ve::SweepConfig s = shape_.sweep;
        s.master_seed = shape_.master_seeds[static_cast<std::size_t>(unit)];
        return s;
    }
    PassResult run(int unit, const std::vector<std::string>& specs,
                   const fs::path& out, CampaignStages& stages, int workers);
    RecordCheck check(int unit, std::vector<ve::InstanceRecord>& recs) const;
    std::uint64_t replay(LayerReport& r, RunTally& tally,
                         std::int64_t& total_ns);

    CampaignShape shape_;
    fs::path dir_;
    std::vector<std::vector<ve::GridJob>> jobs_; ///< per unit
    CampaignStages stages_;  ///< of unit 0's last untraced pass
    Counters unit0_counters_;
    std::int64_t realize_ns_ = 0; ///< exp::realize over unit 0's grid
};

/// Sorts the records and derives the digest, the canonical reduction, and
/// the lines a brute-force scan selects for each readback query.
RecordCheck CampaignWorkload::check(int unit,
                                    std::vector<ve::InstanceRecord>& recs) const {
    std::sort(recs.begin(), recs.end(), [](const auto& a, const auto& b) {
        return std::pair(a.scenario_ordinal, a.trial) <
               std::pair(b.scenario_ordinal, b.trial);
    });
    RecordCheck c;
    const std::size_t want =
        jobs_[static_cast<std::size_t>(unit)].size() *
        static_cast<std::size_t>(shape_.sweep.trials_per_scenario);
    if (recs.size() != want) {
        std::printf("verify: %zu records, expected %zu\n", recs.size(), want);
        ++c.bad;
    }
    Digest d;
    ve::SweepResult tables(shape_.specs);
    for (std::size_t i = 0; i < recs.size();) {
        ve::DfbTable local(shape_.specs.size());
        const std::size_t begin = i;
        for (; i < recs.size() &&
               recs[i].scenario_ordinal == recs[begin].scenario_ordinal;
             ++i) {
            const auto& r = recs[i];
            d.add(r.scenario_ordinal);
            d.add_signed(r.trial);
            for (const long long m : r.makespans) {
                d.add_signed(m);
                if (m <= 0 || m >= shape_.sweep.run.max_slots) ++c.bad;
            }
            local.add_instance(r.makespans);
        }
        ve::merge_job_tables(tables, recs[begin].scenario, local);
    }
    c.tables = tables_digest(tables);
    d.add(c.tables);
    if (shape_.readback)
        for (const auto& q : readback_queries())
            for (const auto& r : recs)
                if (matches(q, r))
                    c.query_lines.push_back(ve::JsonlSink::format_record(r));
    for (const auto& line : c.query_lines) d.add_text(line);
    c.digest = d.value();
    return c;
}

/// One campaign from grid to merged tables (plus the readback queries),
/// then verification of everything it wrote against the records it emitted.
PassResult CampaignWorkload::run(int unit,
                                 const std::vector<std::string>& specs,
                                 const fs::path& out, CampaignStages& stages,
                                 int workers) {
    fs::remove_all(out);
    std::vector<ve::InstanceRecord> recs;
    ve::CampaignConfig cc;
    cc.sweep = sweep_of(unit);
    cc.sweep.threads = static_cast<std::size_t>(workers);
    cc.sweep.record = [&recs](const ve::InstanceRecord& r) {
        recs.push_back(r);
    };
    cc.heuristics = specs;
    cc.directory = out;
    cc.shard_count = shape_.shards;
    cc.checkpoint_jobs = shape_.checkpoint_jobs;
    cc.resume = false;

    // Installed the way `volsched_campaign run` installs it, so the campaign
    // records its stage histograms.
    volsched::obs::Registry reg;
    volsched::obs::Registry* const prev =
        volsched::obs::Registry::install(&reg);
    PassResult res;
    std::vector<fs::path> files;
    std::vector<std::string> query_lines;
    int rebuilds = 0;
    std::uint64_t merged_tables = 0;
    std::uint64_t inline_tables = 0;
    bool complete = false;
    try {
        const std::int64_t t0 = now_ns();
        if (shape_.shards == 1) {
            const auto r = ve::run_campaign(cc);
            complete = r.complete;
            files.push_back(r.jsonl_path);
            inline_tables = tables_digest(r.tables);
        } else {
            const auto r = ve::run_parallel_campaign(cc);
            complete = r.complete;
            for (const auto& s : r.shards) files.push_back(s.jsonl_path);
        }
        const std::int64_t t1 = now_ns();
        const auto merged = ve::merge_shards(files);
        merged_tables = tables_digest(merged);
        res.readback_records = merged.overall.instances();
        const std::int64_t t2 = now_ns();
        if (shape_.readback)
            for (const auto& q : readback_queries()) {
                const auto st = ve::query_shards(
                    files, q, [&](const std::string& line) {
                        query_lines.push_back(line);
                    });
                res.readback_records += static_cast<long long>(st.matched);
                rebuilds += st.indexes_rebuilt;
            }
        const std::int64_t t3 = now_ns();
        res.seconds = static_cast<double>(t3 - t0) * 1e-9;
        res.readback_s = static_cast<double>(t3 - t1) * 1e-9;
        stages.campaign_s = static_cast<double>(t1 - t0) * 1e-9;
        stages.merge_s = static_cast<double>(t2 - t1) * 1e-9;
        stages.query_s = static_cast<double>(t3 - t2) * 1e-9;
    } catch (const std::exception& e) {
        std::printf("verify: campaign pass threw: %s\n", e.what());
        ++res.failed;
    }
    volsched::obs::Registry::install(prev);
    stages.run_us = reg.histogram("campaign.run_us").sum();
    stages.serialize_us = reg.histogram("campaign.serialize_us").sum();
    stages.fsync_us = reg.histogram("campaign.fsync_us").sum();

    if (!complete) {
        std::printf("verify: campaign incomplete\n");
        ++res.failed;
    }
    RecordCheck c = check(unit, recs);
    res.digest = c.digest;
    res.failed += c.bad;
    if (merged_tables != c.tables ||
        (shape_.shards == 1 && inline_tables != c.tables)) {
        std::printf("verify: merged tables differ from the records' "
                    "reduction\n");
        ++res.failed;
    }
    if (query_lines != c.query_lines) {
        std::printf("verify: query_shards returned %zu lines, a scan "
                    "selects %zu\n",
                    query_lines.size(), c.query_lines.size());
        ++res.failed;
    }
    if (rebuilds != 0) {
        std::printf("verify: %d index rebuilds on fresh shards\n", rebuilds);
        ++res.failed;
    }

    std::uintmax_t jsonl_bytes = 0, idx_bytes = 0;
    for (const auto& f : files) {
        std::error_code ec;
        if (const auto n = fs::file_size(f, ec); !ec) jsonl_bytes += n;
        if (const auto n = fs::file_size(ve::index_path(f), ec); !ec)
            idx_bytes += n;
    }
    const long long nrec = static_cast<long long>(recs.size());
    const long long runs = nrec * static_cast<long long>(specs.size());
    long long slots = 0;
    for (const auto& r : recs)
        for (const long long m : r.makespans) slots += m;
    const long long queries =
        shape_.readback ? static_cast<long long>(readback_queries().size()) : 0;
    res.instances = nrec;
    res.attempted = runs + nrec + res.readback_records + queries;
    res.counters["sim.runs"] = runs;
    res.counters["sim.slots"] = slots;
    res.counters["exp.records_written"] = nrec;
    res.counters["exp.records_read"] = res.readback_records;
    res.counters["exp.jsonl_bytes"] = static_cast<long long>(jsonl_bytes);
    res.counters["exp.idx_bytes"] = static_cast<long long>(idx_bytes);
    res.counters["exp.fsyncs"] = reg.histogram("campaign.fsync_us").count();
    res.counters["exp.index_rebuilds"] = rebuilds;
    fs::remove_all(out);
    return res;
}

/// Re-runs every job serially through exp::realize + exp::run_instance with
/// the plain specs: uncontended per-job spans named by ordinal and grid
/// cell, the exact RunMetrics counters, and a third digest of the results.
/// Trial seeds are derived the way the campaign derives them; a change
/// there shows up as a replay digest mismatch.
std::uint64_t CampaignWorkload::replay(LayerReport& r, RunTally& tally,
                                       std::int64_t& total_ns) {
    struct Span {
        double ms;
        const ve::GridJob* job;
    };
    std::vector<Span> spans;
    std::vector<ve::InstanceRecord> recs;
    total_ns = 0;
    const ve::SweepConfig sw = sweep_of(0);
    for (const auto& job : jobs_[0]) {
        const std::int64_t t0 = now_ns();
        const ve::RealizedScenario rs = ve::realize(job.scenario);
        for (int trial = 0; trial < sw.trials_per_scenario; ++trial) {
            const std::uint64_t trial_seed =
                vu::mix_seed(sw.master_seed, 0x54524cULL, job.seed_ordinal,
                             static_cast<std::uint64_t>(trial));
            auto out = ve::run_instance(rs, job.scenario.tasks, shape_.specs,
                                        sw.run, trial_seed,
                                        job.scenario.checkpoint);
            for (const auto& m : out.metrics) tally.add(m);
            ve::InstanceRecord rec;
            rec.scenario_ordinal = job.ordinal;
            rec.trial = trial;
            rec.scenario = job.scenario;
            rec.makespans = std::move(out.makespans);
            recs.push_back(std::move(rec));
        }
        const std::int64_t dt = now_ns() - t0;
        total_ns += dt;
        spans.push_back({ms(dt), &job});
    }
    r.attempted += tally.runs;
    r.failed += tally.incomplete;

    std::vector<double> sorted;
    for (const auto& s : spans) sorted.push_back(s.ms);
    std::sort(sorted.begin(), sorted.end());
    const auto pct = [&](double q) {
        if (sorted.empty()) return 0.0;
        const auto i = static_cast<std::size_t>(
            q * static_cast<double>(sorted.size() - 1) + 0.5);
        return sorted[i];
    };
    add_metric(r, "exp.job_run_ms.p50", pct(0.5), "ms");
    add_metric(r, "exp.job_run_ms.p90", pct(0.9), "ms");
    add_metric(r, "exp.job_run_ms.max", pct(1.0), "ms");
    add_metric(r, "exp.realize_ms.total", ms(realize_ns_), "ms");
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span& a, const Span& b) { return a.ms > b.ms; });
    char line[160];
    for (std::size_t i = 0; i < std::min<std::size_t>(3, spans.size()); ++i) {
        const auto& s = spans[i];
        std::snprintf(line, sizeof line,
                      "straggler #%zu: job ordinal %llu (tasks=%d ncom=%d "
                      "wmin=%d) %.1f ms serial",
                      i + 1, static_cast<unsigned long long>(s.job->ordinal),
                      s.job->scenario.tasks, s.job->scenario.ncom,
                      s.job->scenario.wmin, s.ms);
        r.notes.emplace_back(line);
    }
    return check(0, recs).digest;
}

LayerReport CampaignWorkload::traced(double untraced_rate) {
    LayerReport r;
    register_probe_stage();
    ProbeSink::instance().reset();
    CampaignStages ts;
    const PassResult tp =
        run(0, probed(shape_.specs), dir_ / "traced", ts, shape_.workers);
    const ProbeTotals p = ProbeSink::instance().snapshot();
    r.traced_digest = combine({tp.digest});
    r.attempted += tp.attempted;
    r.failed += tp.failed;

    RunTally tally;
    std::int64_t serial_ns = 0;
    r.replay_digest = combine({replay(r, tally, serial_ns)});
    if (tally.slots != unit0_counters_["sim.slots"]) {
        std::printf("verify: replay stepped %lld slots, the campaign %lld\n",
                    tally.slots, unit0_counters_["sim.slots"]);
        ++r.failed;
    }
    const double traced_rate = ratio(tp.instances, tp.seconds);
    add_engine_layers(r, p, tally, p.run_ns,
                      overhead_frac(traced_rate, untraced_rate));

    // The same campaign on a full pool: parallel efficiency and the job-time
    // inflation contention causes, against the serial replay.
    const int par = campaign_workers();
    CampaignStages ps;
    const PassResult pp =
        run(0, shape_.specs, dir_ / "parallel", ps, par);
    r.attempted += pp.attempted;
    r.failed += pp.failed;
    if (pp.digest != tp.digest) {
        std::printf("verify: %d-worker campaign digest %s != %s\n", par,
                    hex(pp.digest).c_str(), hex(tp.digest).c_str());
        ++r.failed;
    }
    add_metric(r, "exp.parallel_workers", par, "count");
    add_metric(r, "exp.parallel_speedup",
               ratio(stages_.campaign_s, ps.campaign_s), "ratio");
    add_metric(r, "exp.pool_busy_frac",
               ratio(static_cast<double>(ps.run_us) * 1e-6,
                     par * ps.campaign_s),
               "ratio");
    add_metric(r, "exp.run_inflation",
               ratio(static_cast<double>(ps.run_us) * 1e3,
                     static_cast<double>(serial_ns)),
               "ratio");

    const auto& s = stages_;
    add_metric(r, "exp.serialize_ms.total",
               static_cast<double>(s.serialize_us) * 1e-3, "ms");
    add_metric(r, "exp.fsync_ms.total", static_cast<double>(s.fsync_us) * 1e-3,
               "ms");
    add_metric(r, "exp.merge_ms", s.merge_s * 1e3, "ms");
    add_metric(r, "exp.query_ms", s.query_s * 1e3, "ms");
    for (const char* name : {"exp.fsyncs", "exp.records_written",
                             "exp.records_read", "exp.index_rebuilds"})
        add_metric(r, name, static_cast<double>(unit0_counters_[name]),
                   "count");
    for (const char* name : {"exp.jsonl_bytes", "exp.idx_bytes"})
        add_metric(r, name, static_cast<double>(unit0_counters_[name]),
                   "bytes");

    // Self time per layer in the traced pass: the job span minus the runs
    // inside it, and the emitter's serialize and fsync stages.
    add_row(r, "exp.job", static_cast<double>(ts.run_us) * 1e-3, ms(p.run_ns));
    add_row(r, "exp.serialize", static_cast<double>(ts.serialize_us) * 1e-3, 0);
    add_row(r, "exp.fsync", static_cast<double>(ts.fsync_us) * 1e-3, 0);
    add_row(r, "exp.merge", ts.merge_s * 1e3, 0);
    add_row(r, "exp.query", ts.query_s * 1e3, 0);
    return r;
}

// ---------------------------------------------------------------------------
// Direct-engine workload: one unit is one instance, a Simulation raced by
// the whole spec set through Simulation::run.
// ---------------------------------------------------------------------------

/// One unit's result, its digest and its RunMetrics.  Run times are summed into `run_ns`; the pass
/// is timed from `start_ns`, one part per spec, each part ending with its run.
struct InstanceRun {
    PassResult result;
    Digest digest;
    RunTally tally;
};

void race(const vs::Simulation& sim, const std::vector<std::string>& specs,
          std::int64_t start_ns, InstanceRun& out, std::int64_t& run_ns) {
    const auto& registry = va::SchedulerRegistry::instance();
    std::int64_t mark = start_ns;
    for (const auto& spec : specs) {
        const auto sched = registry.make(spec);
        const std::int64_t t0 = now_ns();
        const auto m = sim.run(*sched);
        const std::int64_t t1 = now_ns();
        run_ns += t1 - t0;
        out.result.parts.push_back(static_cast<double>(t1 - mark) * 1e-9);
        mark = t1;
        out.tally.add(m);
        out.digest.add_signed(m.makespan);
        out.digest.add_signed(m.checkpoints_committed);
    }
}

/// Seals a unit's result and adds its runs to `total`.
void finish(InstanceRun& out, RunTally& total) {
    PassResult& r = out.result;
    const RunTally& t = out.tally;
    r.digest = out.digest.value();
    r.instances = 1;
    r.attempted = t.runs;
    r.failed = t.incomplete;
    r.counters["sim.runs"] = t.runs;
    r.counters["sim.slots"] = t.slots;
    total += t;
}

/// The per-layer report of a traced pass over every unit.
LayerReport traced_units_report(
    Workload& wl, const std::function<PassResult(int, RunTally&,
                                                 std::int64_t&)>& run,
    double untraced_rate) {
    LayerReport r;
    register_probe_stage();
    ProbeSink::instance().reset();
    RunTally tally;
    std::int64_t run_ns = 0;
    double seconds = 0;
    std::vector<std::uint64_t> digests;
    for (int u = 0; u < wl.units(); ++u) {
        const PassResult p = run(u, tally, run_ns);
        seconds += p.seconds;
        digests.push_back(p.digest);
        r.failed += p.failed;
        r.attempted += p.attempted;
    }
    r.traced_digest = combine(digests);
    add_engine_layers(r, ProbeSink::instance().snapshot(), tally, run_ns,
                      overhead_frac(ratio(wl.units(), seconds), untraced_rate));
    add_no_campaign(r);
    return r;
}

std::vector<int> all_units(int n) {
    std::vector<int> u(static_cast<std::size_t>(n));
    std::iota(u.begin(), u.end(), 0);
    return u;
}

// ---------------------------------------------------------------------------
// desktop-grid: a volatile semi-Markov fleet sampled inside the timed phase
// ---------------------------------------------------------------------------

/// The night-shift fleet's availability process (short UP bursts, long
/// RECLAIMED evenings, very long DOWN nights; absent ~90% of the time), with
/// every sojourn stretched 50x so UP bursts can hold whole task bodies.
vt::SemiMarkovParams night_shift_process() {
    using vt::SojournDist;
    constexpr double kScale = 50.0;
    vt::SemiMarkovParams params;
    params.sojourn = {SojournDist::weibull_with_mean(0.7, 30.0 * kScale),
                      SojournDist::weibull_with_mean(0.9, 80.0 * kScale),
                      SojournDist::weibull_with_mean(0.8, 400.0 * kScale)};
    params.jump[0] = {0.0, 0.5, 0.5};
    params.jump[1] = {0.5, 0.0, 0.5};
    params.jump[2] = {0.9, 0.1, 0.0};
    return params;
}

class DesktopGrid final : public Workload {
public:
    DesktopGrid(std::uint64_t seed, Size size)
        : seed_(seed), procs_(size == Size::Full ? 32 : 8),
          units_(size == Size::Full ? 48 : 3),
          iterations_(size == Size::Full ? 5 : 2) {}

    [[nodiscard]] int units() const override { return units_; }
    [[nodiscard]] std::vector<int> traced_units() const override {
        return all_units(units_);
    }

    void setup() override {
        for (const auto& s : specs_)
            va::SchedulerRegistry::instance().validate(s);
        params_ = night_shift_process();
        beliefs_.assign(
            static_cast<std::size_t>(procs_),
            vm::MarkovChain(
                vt::SemiMarkovAvailability(params_).equivalent_markov_matrix()));
        policy_ = volsched::ckpt::CheckpointRegistry::instance().make("daly");
        platforms_.clear();
        for (int u = 0; u < units_; ++u) {
            vu::Rng rng(vu::mix_seed(seed_, 0xD6ULL, static_cast<std::uint64_t>(u)));
            vs::Platform pf;
            pf.ncom = 4;
            pf.t_prog = 50;
            pf.t_data = 10;
            for (int q = 0; q < procs_; ++q)
                pf.w.push_back(static_cast<int>(rng.uniform_int(200, 1000)));
            if (!pf.validate().empty())
                throw std::runtime_error("invalid desktop-grid platform");
            platforms_.push_back(std::move(pf));
        }
        horizons_.assign(static_cast<std::size_t>(units_), 0);
    }

    PassResult pass(int unit) override {
        RunTally tally;
        std::int64_t run_ns = 0;
        return run(unit, specs_, *policy_, tally, run_ns);
    }

    LayerReport traced(double untraced_rate) override {
        const auto specs = probed(specs_);
        const ProbeCheckpoint probe(*policy_);
        LayerReport r = traced_units_report(
            *this,
            [&](int u, RunTally& t, std::int64_t& ns) {
                PassResult p = run(u, specs, probe, t, ns);
                probe.flush();
                return p;
            },
            untraced_rate);
        add_metric(r, "ckpt.decide_ms.total",
                   ms(ProbeSink::instance().snapshot().decide_ns), "ms");

        // Sampling cost, measured on fresh realizations of each unit out to
        // the horizon its runs consumed.
        std::int64_t sample_ns = 0;
        long long realized = 0, segments = 0;
        for (int u = 0; u < units_; ++u) {
            vm::RealizedTraces traces(models(), sim_seed(u));
            const std::int64_t t0 = now_ns();
            traces.ensure(horizons_[static_cast<std::size_t>(u)]);
            sample_ns += now_ns() - t0;
            for (int q = 0; q < traces.size(); ++q) {
                realized += traces.trace(q).realized();
                segments += static_cast<long long>(
                    traces.trace(q).segments().size());
            }
        }
        add_metric(r, "markov.sample_ms.total", ms(sample_ns), "ms");
        add_metric(r, "markov.slots_realized", static_cast<double>(realized),
                   "count");
        add_metric(r, "markov.segments", static_cast<double>(segments),
                   "count");
        r.counters["markov.slots_realized"] = realized;
        r.counters["markov.segments"] = segments;
        add_row(r, "markov.sample", ms(sample_ns), 0);
        return r;
    }

private:
    [[nodiscard]] std::vector<std::unique_ptr<vm::AvailabilityModel>>
    models() const {
        std::vector<std::unique_ptr<vm::AvailabilityModel>> m;
        for (int q = 0; q < procs_; ++q)
            m.push_back(std::make_unique<vt::SemiMarkovAvailability>(params_));
        return m;
    }
    [[nodiscard]] std::uint64_t sim_seed(int u) const {
        return vu::mix_seed(seed_, 0xD61DULL, static_cast<std::uint64_t>(u));
    }

    PassResult run(int unit, const std::vector<std::string>& specs,
                   const volsched::ckpt::CheckpointPolicy& policy,
                   RunTally& tally, std::int64_t& run_ns) {
        vs::EngineConfig ec;
        ec.iterations = iterations_;
        ec.tasks_per_iteration = procs_ / 2; // fewer tasks than workers
        ec.replica_cap = 0;
        ec.checkpoint = &policy;
        ec.checkpoint_cost = 4;
        InstanceRun out;
        const std::int64_t t0 = now_ns();
        // Built inside the timed phase: the first run samples the
        // realization lazily, as in a real run.
        const vs::Simulation sim(platforms_[static_cast<std::size_t>(unit)],
                                 models(), beliefs_, ec, sim_seed(unit));
        race(sim, specs, t0, out, run_ns);
        out.result.seconds = seconds_since(t0);
        long long horizon = 0;
        const auto traces = sim.realization();
        for (int q = 0; q < traces->size(); ++q)
            horizon = std::max(horizon, traces->trace(q).realized());
        horizons_[static_cast<std::size_t>(unit)] = horizon;
        out.result.counters["ckpt.checkpoints_committed"] = out.tally.committed;
        finish(out, tally);
        return out.result;
    }

    std::uint64_t seed_;
    int procs_;
    int units_;
    int iterations_;
    std::vector<std::string> specs_{"emct", "emct*", "mct", "lw*", "ud*",
                                    "random1w"};
    vt::SemiMarkovParams params_;
    std::vector<vm::MarkovChain> beliefs_;
    std::unique_ptr<volsched::ckpt::CheckpointPolicy> policy_;
    std::vector<vs::Platform> platforms_;
    std::vector<long long> horizons_;
};

std::vector<std::uint64_t> unit_seeds(std::uint64_t seed, std::uint64_t salt,
                                      int n) {
    std::vector<std::uint64_t> seeds;
    for (int u = 0; u < n; ++u)
        seeds.push_back(vu::mix_seed(seed, salt, static_cast<std::uint64_t>(u)));
    return seeds;
}

} // namespace

int campaign_workers() {
    const unsigned n = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(n > 1 ? n - 1 : 1U, 1U, 3U));
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size,
                                        const std::string& work_dir) {
    const bool full = size == Size::Full;
    if (name == "table1") {
        CampaignShape s;
        if (!full) {
            s.sweep.tasks_values = {5, 10};
            s.sweep.ncom_values = {5};
            s.sweep.wmin_values = {1, 2};
            s.sweep.run.iterations = 3;
        }
        s.sweep.scenarios_per_cell = 1;
        s.sweep.trials_per_scenario = 1;
        s.master_seeds = unit_seeds(seed, 0x7AB1EULL, 1);
        s.warm_up = false;
        s.specs = volsched::core::all_heuristic_names();
        return std::make_unique<CampaignWorkload>(std::move(s),
                                                  fs::path(work_dir) / name);
    }
    if (name == "stream-io") {
        CampaignShape s;
        s.sweep.p = 4;
        s.sweep.tasks_values = {1, 2};
        s.sweep.ncom_values = {1, 2};
        s.sweep.wmin_values = {1, 2};
        s.sweep.scenarios_per_cell = full ? 40 : 3;
        s.sweep.trials_per_scenario = full ? 60 : 8;
        s.sweep.run.iterations = 1;
        s.master_seeds = unit_seeds(seed, 0x510ULL, full ? 3 : 2);
        s.specs = {"mct"};
        // Each shard runs its own emitter thread: shards + pool threads
        // stay within nproc.
        s.shards = 2;
        s.workers = std::max(1, campaign_workers() - 1);
        s.checkpoint_jobs = 1;
        s.readback = true;
        return std::make_unique<CampaignWorkload>(std::move(s),
                                                  fs::path(work_dir) / name);
    }
    if (name == "desktop-grid") return std::make_unique<DesktopGrid>(seed, size);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench
