/// Observability-layer suite (src/obs + exp/status): the load-bearing
/// invariant is that tracing and metrics are provably *non-perturbing* —
/// attaching a TraceRecorder (or installing a Registry) must leave every
/// existing output byte-identical, across the Markov, semi-Markov, and
/// checkpointed regimes and under both stepping cores.  Also pins the
/// Chrome-trace JSON schema (Perfetto loadability), the registry's
/// concurrency and rendering contracts, the status.json heartbeat
/// round-trip and torn-file tolerance, and the ExpectationCache counters
/// surfaced through RunMetrics.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/simulation_builder.hpp"
#include "ckpt/registry.hpp"
#include "exp/campaign.hpp"
#include "exp/status.hpp"
#include "obs/registry.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "sim/action_trace.hpp"
#include "sim/engine.hpp"
#include "sim/events.hpp"
#include "sim/metrics_io.hpp"
#include "sim/timeline.hpp"
#include "support/fixtures.hpp"
#include "support/golden.hpp"
#include "trace/semi_markov.hpp"
#include "trace/sojourn.hpp"
#include "util/json.hpp"

namespace ve = volsched::exp;
namespace vk = volsched::ckpt;
namespace vm = volsched::markov;
namespace vo = volsched::obs;
namespace vs = volsched::sim;
namespace vt = volsched::test;
namespace vj = volsched::util::json;

namespace {

// -------------------------------------------------------------------------
// Trace-on / trace-off byte identity.
// -------------------------------------------------------------------------

/// Run-length-encoded text form of an action trace — verbatim per-slot
/// content, so string equality is action-trace equality.
std::string actions_to_text(const vs::ActionTrace& t) {
    std::ostringstream os;
    for (int q = 0; q < t.procs(); ++q) {
        os << 'q' << q << ':';
        const auto& row = t.row(q);
        std::size_t i = 0;
        while (i < row.size()) {
            std::size_t j = i;
            while (j < row.size() && row[j].recv == row[i].recv &&
                   row[j].compute == row[i].compute)
                ++j;
            os << ' ' << (j - i) << 'x' << row[i].recv << '/'
               << row[i].compute;
            i = j;
        }
        os << '\n';
    }
    return os.str();
}

/// Every observable output of one run, rendered to bytes.
struct Snapshot {
    std::string metrics;
    std::string timeline;
    std::string actions;
    std::string trace_json; ///< empty for the untraced arms
};

/// The regimes under test; each builds and runs one simulation with the
/// given observers attached.
struct Regime {
    std::string label;
    std::function<vs::RunMetrics(bool event_core,
                                 std::vector<vs::EngineObserver*> observers)>
        run;
};

std::vector<Regime> regimes() {
    std::vector<Regime> rs;

    // Markov chains over a small heterogeneous platform (test_event_engine's
    // canonical fixture).
    rs.push_back({"markov", [](bool event_core,
                               std::vector<vs::EngineObserver*> observers) {
                      vs::Platform pf;
                      pf.w = {2, 3, 4};
                      pf.ncom = 2;
                      pf.t_prog = 3;
                      pf.t_data = 1;
                      const std::vector<vm::MarkovChain> chains(
                          3, vt::chain3(0.35, 0.05, 0.10, 0.30, 0.15, 0.05));
                      vs::EngineConfig cfg = vt::audited_config(2, 4);
                      cfg.event_driven = event_core;
                      cfg.observers = std::move(observers);
                      const auto sim =
                          vs::Simulation::from_chains(pf, chains, cfg, 17);
                      const auto sched = vt::make_scheduler("mct");
                      return sim.run(*sched);
                  }});

    // Heavy-tailed semi-Markov sojourns: long absences exercise the event
    // core's elision (and the tracer's elided-range spans).
    rs.push_back({"semi-markov",
                  [](bool event_core,
                     std::vector<vs::EngineObserver*> observers) {
                      using volsched::trace::SemiMarkovAvailability;
                      using volsched::trace::SemiMarkovParams;
                      using volsched::trace::SojournDist;
                      constexpr int kProcs = 3;
                      const auto pf = vs::Platform::homogeneous(
                          kProcs, /*w_all=*/6, /*ncom=*/2, /*t_prog=*/4,
                          /*t_data=*/1);
                      SemiMarkovParams params;
                      params.sojourn = {
                          SojournDist::weibull_with_mean(0.7, 10.0),
                          SojournDist::weibull_with_mean(0.9, 25.0),
                          SojournDist::weibull_with_mean(0.8, 120.0)};
                      params.jump[0] = {0.0, 0.4, 0.6};
                      params.jump[1] = {0.5, 0.0, 0.5};
                      params.jump[2] = {0.9, 0.1, 0.0};
                      const std::vector<vm::MarkovChain> beliefs(
                          kProcs,
                          vm::MarkovChain(SemiMarkovAvailability(params)
                                              .equivalent_markov_matrix()));
                      std::vector<std::unique_ptr<vm::AvailabilityModel>>
                          models;
                      for (int q = 0; q < kProcs; ++q)
                          models.push_back(
                              std::make_unique<SemiMarkovAvailability>(
                                  params));
                      vs::EngineConfig cfg = vt::audited_config(2, 4);
                      cfg.observers = std::move(observers);
                      auto sim = vs::Simulation::builder()
                                     .platform(pf)
                                     .models(std::move(models))
                                     .beliefs(beliefs)
                                     .config(cfg)
                                     .event_driven(event_core)
                                     .seed(23)
                                     .build();
                      const auto sched = vt::make_scheduler("emct");
                      return sim.run(*sched);
                  }});

    // Checkpointed regime: upload events and recoveries add the ckpt lane.
    rs.push_back({"checkpointed",
                  [](bool event_core,
                     std::vector<vs::EngineObserver*> observers) {
                      vs::Platform pf;
                      pf.w = {4, 6, 8};
                      pf.ncom = 2;
                      pf.t_prog = 3;
                      pf.t_data = 1;
                      const std::vector<vm::MarkovChain> chains(
                          3, vt::chain3(0.55, 0.05, 0.20, 0.30, 0.25, 0.05));
                      const auto policy =
                          vk::CheckpointRegistry::instance().make("daly");
                      vs::EngineConfig cfg = vt::audited_config(2, 4);
                      cfg.checkpoint = policy.get();
                      cfg.checkpoint_cost = 2;
                      cfg.event_driven = event_core;
                      cfg.observers = std::move(observers);
                      const auto sim =
                          vs::Simulation::from_chains(pf, chains, cfg, 29);
                      const auto sched = vt::make_scheduler("mct");
                      return sim.run(*sched);
                  }});
    return rs;
}

/// Which observers a snapshot's run attaches.
enum class Attach {
    None,      ///< no observer at all
    Recorders, ///< Timeline + ActionTrace
    All,       ///< Timeline + ActionTrace + EventLog + TraceRecorder
};

Snapshot snapshot(const Regime& regime, bool event_core, Attach attach) {
    vs::Timeline tl;
    vs::ActionTrace at;
    vs::EventLog log;
    vo::TraceRecorder rec;
    std::vector<vs::EngineObserver*> observers;
    if (attach != Attach::None) observers = {&tl, &at};
    if (attach == Attach::All) observers.insert(observers.end(), {&log, &rec});
    const auto m = regime.run(event_core, observers);
    Snapshot s;
    s.metrics = vs::metrics_to_json(m);
    s.timeline = tl.render();
    s.actions = actions_to_text(at);
    if (attach == Attach::All) s.trace_json = rec.json();
    return s;
}

// -------------------------------------------------------------------------
// Chrome-trace schema validation (what scripts/check_trace.py checks in CI,
// pinned here so the contract breaks loudly in ctest too).
// -------------------------------------------------------------------------

void validate_trace_json(const std::string& text, const std::string& label) {
    const auto doc = vj::Value::parse(text);
    ASSERT_TRUE(doc.is_object()) << label;
    EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms") << label;
    const auto& events = doc.at("traceEvents").items();
    ASSERT_FALSE(events.empty()) << label;

    bool seen_non_meta = false;
    // Open-interval bookkeeping per track: X spans on one tid must not
    // overlap (Perfetto renders overlap as nested slices — wrong here).
    std::map<long long, long long> track_end; // tid -> last span end ts
    long long prev_ts = -1;
    for (const auto& ev : events) {
        ASSERT_TRUE(ev.is_object()) << label;
        const std::string ph = ev.at("ph").as_string();
        ASSERT_TRUE(ph == "M" || ph == "X" || ph == "i")
            << label << ": unexpected phase " << ph;
        EXPECT_EQ(ev.at("pid").as_i64(), 0) << label;
        (void)ev.at("name").as_string();
        const long long tid = ev.at("tid").as_i64();
        const long long ts = ev.at("ts").as_i64();
        if (ph == "M") {
            // Metadata first: a thread_name arriving after events on its
            // track is honored inconsistently across viewers.
            EXPECT_FALSE(seen_non_meta)
                << label << ": metadata event after a trace event";
            continue;
        }
        seen_non_meta = true;
        EXPECT_GE(ts, 0) << label;
        EXPECT_GE(ts, prev_ts) << label << ": ts not monotone in file order";
        prev_ts = ts;
        if (ph == "X") {
            const long long dur = ev.at("dur").as_i64();
            EXPECT_GE(dur, 0) << label;
            auto [it, fresh] = track_end.try_emplace(tid, ts + dur);
            if (!fresh) {
                EXPECT_GE(ts, it->second)
                    << label << ": overlapping spans on tid " << tid;
                it->second = ts + dur;
            }
        } else {
            EXPECT_EQ(ev.at("s").as_string(), "t") << label;
        }
    }
    EXPECT_TRUE(seen_non_meta) << label << ": metadata only, no events";
}

} // namespace

// -------------------------------------------------------------------------
// The non-perturbation invariant.
// -------------------------------------------------------------------------

TEST(TraceIdentity, TracingIsByteInvisibleInAllRegimesAndBothCores) {
    for (const auto& regime : regimes()) {
        for (const bool event_core : {false, true}) {
            const std::string label =
                regime.label + (event_core ? "/event" : "/slot");
            const Snapshot off =
                snapshot(regime, event_core, Attach::Recorders);
            const Snapshot on = snapshot(regime, event_core, Attach::All);
            EXPECT_EQ(off.metrics, on.metrics) << label;
            // Observation as a whole steers nothing either: a run with no
            // observer at all matches the run with all four attached.
            EXPECT_EQ(snapshot(regime, event_core, Attach::None).metrics,
                      on.metrics)
                << label;
            EXPECT_EQ(off.timeline, on.timeline) << label;
            EXPECT_EQ(off.actions, on.actions) << label;
            ASSERT_FALSE(on.trace_json.empty()) << label;
            validate_trace_json(on.trace_json, label);
        }
    }
}

TEST(TraceIdentity, TraceIsDeterministicAcrossRepeatedRuns) {
    const auto regime = regimes().front();
    const Snapshot a = snapshot(regime, true, Attach::All);
    const Snapshot b = snapshot(regime, true, Attach::All);
    EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(TraceIdentity, InstalledRegistryDoesNotPerturbResults) {
    // The registry seam is the other observer: flipping it on around a run
    // must be byte-invisible too.
    const auto regime = regimes().front();
    const Snapshot off = snapshot(regime, true, Attach::Recorders);
    vo::Registry registry;
    vo::Registry::install(&registry);
    const Snapshot on = snapshot(regime, true, Attach::Recorders);
    vo::Registry::install(nullptr);
    EXPECT_EQ(off.metrics, on.metrics);
    EXPECT_EQ(off.timeline, on.timeline);
    EXPECT_EQ(off.actions, on.actions);
}

// -------------------------------------------------------------------------
// Registry contracts.
// -------------------------------------------------------------------------

TEST(ObsRegistry, HandlesAreStableAndJsonIsDeterministic) {
    vo::Registry r;
    vo::Counter& c = r.counter("b.count");
    vo::Gauge& g = r.gauge("a.level");
    vo::Histogram& h = r.histogram("c.lat_us");
    c.add(3);
    g.set(-2);
    h.observe(0);
    h.observe(5);
    // Registering more names must not move existing handles.
    for (int i = 0; i < 64; ++i) r.counter("extra." + std::to_string(i));
    EXPECT_EQ(&c, &r.counter("b.count"));
    EXPECT_EQ(&g, &r.gauge("a.level"));
    EXPECT_EQ(&h, &r.histogram("c.lat_us"));
    EXPECT_EQ(c.value(), 3);
    EXPECT_EQ(g.value(), -2);
    EXPECT_EQ(h.count(), 2);
    EXPECT_EQ(h.sum(), 5);
    EXPECT_EQ(h.max(), 5);

    const std::string json = r.to_json();
    const auto doc = vj::Value::parse(json);
    EXPECT_EQ(doc.at("b.count").as_i64(), 3);
    EXPECT_EQ(doc.at("a.level").as_i64(), -2);
    EXPECT_EQ(doc.at("c.lat_us").at("count").as_i64(), 2);
    EXPECT_EQ(doc.at("c.lat_us").at("sum").as_i64(), 5);
    EXPECT_EQ(doc.at("c.lat_us").at("max").as_i64(), 5);
    EXPECT_EQ(json, r.to_json()) << "rendering must be reproducible";
}

TEST(ObsRegistry, ConcurrentRegistrationAndRecordingIsLossless) {
    vo::Registry r;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&r, i] {
            // Each thread re-resolves shared names and pounds them,
            // interleaved with registering thread-private ones.
            for (int k = 0; k < kPerThread; ++k) {
                r.counter("shared.count").add(1);
                r.histogram("shared.lat").observe(k);
                if (k % 512 == 0)
                    r.gauge("private." + std::to_string(i)).set(k);
            }
        });
    for (auto& t : threads) t.join();
    EXPECT_EQ(r.counter("shared.count").value(),
              static_cast<long long>(kThreads) * kPerThread);
    EXPECT_EQ(r.histogram("shared.lat").count(),
              static_cast<long long>(kThreads) * kPerThread);
    EXPECT_EQ(r.histogram("shared.lat").max(), kPerThread - 1);
}

TEST(ObsRegistry, InstallSeamNestsAndRestores) {
    ASSERT_EQ(vo::Registry::active(), nullptr)
        << "tests assume no ambient registry";
    vo::Registry outer, inner;
    EXPECT_EQ(vo::Registry::install(&outer), nullptr);
    EXPECT_EQ(vo::Registry::active(), &outer);
    EXPECT_EQ(vo::Registry::install(&inner), &outer);
    EXPECT_EQ(vo::Registry::install(nullptr), &inner);
    EXPECT_EQ(vo::Registry::active(), nullptr);
}

TEST(ObsStopwatch, MonotoneAndScopedTimerFeedsHistogram) {
    const std::int64_t a = vo::now_us();
    const std::int64_t b = vo::now_us();
    EXPECT_GE(b, a);
    vo::Histogram h;
    {
        vo::ScopedTimer t(&h);
    }
    { vo::ScopedTimer none(nullptr); } // null sink must be a no-op
    EXPECT_EQ(h.count(), 1);
    EXPECT_GE(h.max(), 0);
}

// -------------------------------------------------------------------------
// status.json heartbeat.
// -------------------------------------------------------------------------

TEST(ShardStatus, RoundTripsThroughJson) {
    vt::TempDir dir;
    ve::ShardStatus s;
    s.shard = 2;
    s.shards = 4;
    s.jobs_done = 7;
    s.jobs_total = 12;
    s.instances_done = 21;
    s.queue_depth = 3;
    s.emitter_lag = 5;
    s.window = 8;
    s.state = "running";
    s.run = {7, 4200, 900};
    s.serialize = {7, 64, 12};
    s.fsync = {2, 2048, 1500};
    ve::write_status(dir.path(), s);

    const auto back = ve::read_status(dir.path());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->shard, 2);
    EXPECT_EQ(back->shards, 4);
    EXPECT_EQ(back->jobs_done, 7);
    EXPECT_EQ(back->jobs_total, 12);
    EXPECT_EQ(back->instances_done, 21);
    EXPECT_EQ(back->queue_depth, 3);
    EXPECT_EQ(back->emitter_lag, 5);
    EXPECT_EQ(back->window, 8);
    EXPECT_EQ(back->state, "running");
    EXPECT_EQ(back->run.count, 7);
    EXPECT_EQ(back->run.total_us, 4200);
    EXPECT_EQ(back->run.max_us, 900);
    EXPECT_EQ(back->serialize.count, 7);
    EXPECT_EQ(back->fsync.max_us, 1500);
}

TEST(ShardStatus, MissingAndTornFilesReadAsNoHeartbeat) {
    vt::TempDir dir;
    EXPECT_FALSE(ve::read_status(dir.path()).has_value()) << "missing";

    // A torn or foreign file must read as "no heartbeat", never throw:
    // a shard killed mid-write leaves whatever was last durable.
    const auto path = ve::status_path(dir.path());
    for (const std::string& torn :
         {std::string("{\"shard\":1,\"shards\":2,\"jobs_"), // truncated
          std::string("not json at all"), std::string(""),
          std::string("[1,2,3]")}) {
        vt::write_file(path, torn);
        EXPECT_FALSE(ve::read_status(dir.path()).has_value())
            << "content: " << torn;
    }
}

TEST(ShardStatus, OutOfRangeShardReadsAsNoHeartbeat) {
    // 4294967298 = 2^32 + 2 would wrap to shard 2 if narrowed unchecked.
    vt::TempDir dir;
    ve::ShardStatus s;
    s.shard = 2;
    s.shards = 4;
    s.state = "running";
    const std::string json = ve::status_to_json(s);
    vt::write_file(ve::status_path(dir.path()), json);
    ASSERT_TRUE(ve::read_status(dir.path()).has_value());
    const std::string from = "\"shard\":2";
    std::string bad = json;
    bad.replace(bad.find(from), from.size(), "\"shard\":4294967298");
    vt::write_file(ve::status_path(dir.path()), bad);
    EXPECT_FALSE(ve::read_status(dir.path()).has_value()) << bad;
}

TEST(ShardStatus, CampaignHeartbeatReportsCompletion) {
    vt::TempDir dir;
    ve::CampaignConfig cfg;
    cfg.sweep.tasks_values = {3};
    cfg.sweep.ncom_values = {2};
    cfg.sweep.wmin_values = {1, 2};
    cfg.sweep.scenarios_per_cell = 2;
    cfg.sweep.trials_per_scenario = 2;
    cfg.sweep.p = 4;
    cfg.sweep.run.iterations = 2;
    cfg.sweep.master_seed = 7;
    cfg.sweep.threads = 2;
    cfg.heuristics = {"mct", "emct"};
    cfg.directory = dir.path();
    cfg.checkpoint_jobs = 2;
    cfg.heartbeat = true;

    const auto outcome = ve::run_campaign(cfg);
    ASSERT_TRUE(outcome.complete);

    const auto status = ve::read_status(dir.path());
    ASSERT_TRUE(status.has_value()) << "heartbeat file missing";
    EXPECT_EQ(status->state, "done");
    EXPECT_EQ(status->jobs_done, outcome.jobs_done);
    EXPECT_EQ(status->jobs_total, outcome.jobs_total);
    EXPECT_EQ(status->instances_done, outcome.instances_done);
    EXPECT_EQ(status->queue_depth, 0);
    EXPECT_EQ(status->emitter_lag, 0);
    EXPECT_GT(status->run.count, 0) << "no run-stage samples";
    EXPECT_GE(status->run.total_us, 0);
    EXPECT_GT(status->fsync.count, 0) << "no checkpoint flush samples";
}

TEST(ShardStatus, HeartbeatDoesNotPerturbCampaignRecords) {
    // The records stream must be byte-identical with the heartbeat on or
    // off — the observer-only contract at campaign scale.
    auto base = [](const std::filesystem::path& dir) {
        ve::CampaignConfig cfg;
        cfg.sweep.tasks_values = {3};
        cfg.sweep.ncom_values = {2};
        cfg.sweep.wmin_values = {1};
        cfg.sweep.scenarios_per_cell = 2;
        cfg.sweep.trials_per_scenario = 2;
        cfg.sweep.p = 4;
        cfg.sweep.run.iterations = 2;
        cfg.sweep.master_seed = 11;
        cfg.sweep.threads = 2;
        cfg.heuristics = {"mct", "emct"};
        cfg.directory = dir;
        cfg.checkpoint_jobs = 2;
        return cfg;
    };
    vt::TempDir with, without;
    auto on = base(with.path());
    on.heartbeat = true;
    auto off = base(without.path());
    const auto a = ve::run_campaign(on);
    const auto b = ve::run_campaign(off);
    ASSERT_TRUE(a.complete);
    ASSERT_TRUE(b.complete);
    EXPECT_EQ(vt::read_file(a.jsonl_path), vt::read_file(b.jsonl_path));
}

// -------------------------------------------------------------------------
// ExpectationCache counters surfaced through RunMetrics.
// -------------------------------------------------------------------------

TEST(CacheCounters, GreedyRunReportsCacheTrafficInMetricsAndJson) {
    vs::Platform pf;
    pf.w = {2, 3, 4};
    pf.ncom = 2;
    pf.t_prog = 3;
    pf.t_data = 1;
    const std::vector<vm::MarkovChain> chains(
        3, vt::chain3(0.35, 0.05, 0.10, 0.30, 0.15, 0.05));
    const auto sim = vs::Simulation::from_chains(
        pf, chains, vt::audited_config(2, 4), 17);
    const auto sched = vt::make_scheduler("emct");
    const auto m = sim.run(*sched);
    EXPECT_GT(m.cache_hits + m.cache_misses, 0)
        << "a scoring heuristic must touch the expectation cache";
    EXPECT_GE(m.cache_hits, 0);
    EXPECT_GE(m.cache_misses, 0);
    EXPECT_GE(m.cache_invalidations, 0);

    const auto doc = vj::Value::parse(vs::metrics_to_json(m));
    EXPECT_EQ(doc.at("cache_hits").as_i64(), m.cache_hits);
    EXPECT_EQ(doc.at("cache_misses").as_i64(), m.cache_misses);
    EXPECT_EQ(doc.at("cache_invalidations").as_i64(),
              m.cache_invalidations);
}

TEST(CacheCounters, NonScoringSchedulerReportsZero) {
    vs::Platform pf;
    pf.w = {2, 3};
    pf.ncom = 2;
    pf.t_prog = 3;
    pf.t_data = 1;
    const std::vector<vm::MarkovChain> chains(2, vt::always_up_chain());
    const auto sim = vs::Simulation::from_chains(
        pf, chains, vt::audited_config(1, 3), 5);
    const auto sched = vt::make_scheduler("random");
    const auto m = sim.run(*sched);
    EXPECT_EQ(m.cache_hits, 0);
    EXPECT_EQ(m.cache_misses, 0);
    EXPECT_EQ(m.cache_invalidations, 0);
}
