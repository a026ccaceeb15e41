/// \file bench_engine.cpp
/// Engine-throughput benchmark:
///
///  * *Paper grid* — instances of the paper recipe run under 1 heuristic
///    and under the full heuristic set, each Simulation sampling its
///    availability realization once and replaying it for every run.
///
///  * *Event-driven core* — a scoring-sparse regime (fewer tasks than
///    processors, no replicas, long task bodies) where the scheduler goes
///    idle between completions and the event core (EngineConfig::
///    event_driven) advances whole stretches in closed form.  Measured
///    event-on vs slot-loop on the absence-dominated desktop-grid fleet.
///
///  * *Scoring* — a dense contended regime, batched scoring with the
///    expectation cache vs the scalar bypass loops, same binary.
///
/// `--json <path>` writes the shared machine-readable schema of
/// bench/report.hpp — this benchmark seeds the repo's BENCH_*.json perf
/// trajectory and runs (with --smoke) as the CI perf-smoke step.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "report.hpp"

#include "api/registry.hpp"
#include "api/simulation_builder.hpp"
#include "core/factory.hpp"
#include "exp/scenario.hpp"
#include "markov/expectation_cache.hpp"
#include "sim/engine.hpp"
#include "trace/semi_markov.hpp"
#include "util/cli.hpp"

namespace va = volsched::api;
namespace vb = volsched::benchtool;
namespace vc = volsched::core;
namespace ve = volsched::exp;
namespace vm = volsched::markov;
namespace vs = volsched::sim;

namespace {

struct Measurement {
    double wall_seconds = 0;
    long long slots = 0;  ///< simulated slots (elided slots included)
    long long elided = 0; ///< slots the event core advanced in closed form
    long long runs = 0;
};

/// Runs every heuristic in `scheds` on every realized scenario, `repeat`
/// times.  A fresh Simulation per (scenario, repetition) pays for sampling
/// once per instance.
Measurement measure(const std::vector<ve::RealizedScenario>& instances,
                    const std::vector<std::string>& heuristics,
                    const vs::EngineConfig& cfg, std::uint64_t seed,
                    int repeat) {
    const auto& registry = va::SchedulerRegistry::instance();
    std::vector<std::unique_ptr<vs::Scheduler>> scheds;
    scheds.reserve(heuristics.size());
    for (const auto& name : heuristics) scheds.push_back(registry.make(name));

    Measurement m;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeat; ++r) {
        for (const auto& rs : instances) {
            auto builder = vs::Simulation::builder();
            builder.platform(rs.platform)
                .markov(rs.chains)
                .config(cfg)
                .seed(seed);
            const auto sim = builder.build();
            for (const auto& sched : scheds) {
                const auto metrics = sim.run(*sched);
                m.slots += metrics.makespan;
                ++m.runs;
            }
        }
    }
    const auto stop = std::chrono::steady_clock::now();
    m.wall_seconds =
        std::chrono::duration<double>(stop - start).count();
    return m;
}

vb::BenchRecord to_record(const std::string& name, const Measurement& m) {
    vb::BenchRecord rec;
    rec.name = name;
    rec.iterations = m.runs;
    rec.wall_seconds = m.wall_seconds;
    rec.slots_per_sec =
        m.wall_seconds > 0 ? static_cast<double>(m.slots) / m.wall_seconds : 0;
    return rec;
}

/// The night-shift fleet's availability process: short UP bursts, long
/// RECLAIMED evenings, very long DOWN nights — absent ~90% of the time.
/// `scale` stretches every sojourn mean by the same factor (a finer slot
/// grid over the same physical process), leaving the absence fraction
/// untouched.
volsched::trace::SemiMarkovParams desktop_grid_process(double scale = 1.0) {
    using volsched::trace::SojournDist;
    volsched::trace::SemiMarkovParams params;
    params.sojourn = {SojournDist::weibull_with_mean(0.7, 30.0 * scale),
                      SojournDist::weibull_with_mean(0.9, 80.0 * scale),
                      SojournDist::weibull_with_mean(0.8, 400.0 * scale)};
    params.jump[0] = {0.0, 0.5, 0.5};
    params.jump[1] = {0.5, 0.0, 0.5};
    params.jump[2] = {0.9, 0.1, 0.0};
    return params;
}

std::vector<std::unique_ptr<vm::AvailabilityModel>>
fleet_models(const volsched::trace::SemiMarkovParams& params, int procs) {
    std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
    models.reserve(static_cast<std::size_t>(procs));
    for (int q = 0; q < procs; ++q)
        models.push_back(
            std::make_unique<volsched::trace::SemiMarkovAvailability>(params));
    return models;
}

/// Measurement body for the desktop-grid regime: `pf` and `cfg` pick the
/// workload, `event` the stepping core under test.  Repetition r replays
/// the pre-sampled snapshot shared[r] instead of sampling inside the timed
/// region — the control for core-vs-core comparisons, where sampling cost
/// is not under test.
Measurement measure_fleet(
    const vs::Platform& pf, const vs::EngineConfig& cfg, std::uint64_t seed,
    std::uint64_t salt, int repeat, bool event, double scale,
    const std::vector<std::shared_ptr<vm::RealizedTraces>>& shared) {
    const int procs = static_cast<int>(pf.w.size());
    const auto params = desktop_grid_process(scale);
    const std::vector<vm::MarkovChain> beliefs(
        static_cast<std::size_t>(procs),
        vm::MarkovChain(volsched::trace::SemiMarkovAvailability(params)
                            .equivalent_markov_matrix()));
    const auto sched = va::SchedulerRegistry::instance().make("emct");

    Measurement m;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeat; ++r) {
        auto builder = vs::Simulation::builder();
        builder.platform(pf)
            .models(fleet_models(params, procs))
            .beliefs(beliefs)
            .config(cfg)
            .event_driven(event)
            .seed(volsched::util::mix_seed(seed, salt, r))
            .realized(shared[static_cast<std::size_t>(r)]);
        const auto sim = builder.build();
        const auto metrics = sim.run(*sched);
        m.slots += metrics.makespan;
        m.elided += metrics.slots_elided;
        ++m.runs;
    }
    const auto stop = std::chrono::steady_clock::now();
    m.wall_seconds = std::chrono::duration<double>(stop - start).count();
    return m;
}

/// Scoring-sparse showcase for the event core: the absent-most-of-the-time
/// fleet with fewer tasks than processors, no replicas and long task
/// bodies, so once the pool drains the scheduler goes quiet and whole
/// compute/absence stretches advance in closed form.  Measured event core
/// vs the reference slot loop (dead-stretch skip on, the default).
/// The scoring-sparse regime's fixed ingredients, shared by both timed
/// legs: workload shape plus one pre-sampled realization snapshot per
/// repetition, so the legs replay identical availability and the stepping
/// core is the only variable (sampling cost stays outside the timing).
struct SparseRegime {
    static constexpr std::uint64_t kSalt = 0x5BA5EULL;
    static constexpr double kScale = 50.0;
    vs::Platform pf;
    vs::EngineConfig cfg;
    std::vector<std::shared_ptr<vm::RealizedTraces>> instances;
};

SparseRegime prepare_desktop_grid_sparse(const vs::EngineConfig& base_cfg,
                                         std::uint64_t seed, int repeat) {
    SparseRegime rg;
    rg.pf = vs::Platform::homogeneous(3, /*w_all=*/3000, /*ncom=*/2,
                                      /*t_prog=*/10, /*t_data=*/2);
    rg.cfg = base_cfg;
    rg.cfg.tasks_per_iteration = 2; // fewer tasks than processors
    rg.cfg.replica_cap = 0;         // pool truly drains; no replica scans
    // Sojourns stretched 50x: same absent-dominated process on a finer
    // slot grid, so UP bursts are long enough to hold whole task bodies.
    const auto params = desktop_grid_process(SparseRegime::kScale);
    rg.instances.reserve(static_cast<std::size_t>(repeat));
    for (int r = 0; r < repeat; ++r)
        rg.instances.push_back(std::make_shared<vm::RealizedTraces>(
            fleet_models(params, 3),
            volsched::util::mix_seed(seed, SparseRegime::kSalt, r)));
    // One untimed warm pass materializes each snapshot out to its run's
    // horizon, so neither timed leg grows the realization.
    (void)measure_fleet(rg.pf, rg.cfg, seed, SparseRegime::kSalt, repeat,
                        /*event=*/true, SparseRegime::kScale, rg.instances);
    return rg;
}

Measurement measure_desktop_grid_sparse(const SparseRegime& rg,
                                        std::uint64_t seed, int repeat,
                                        bool event) {
    return measure_fleet(rg.pf, rg.cfg, seed, SparseRegime::kSalt, repeat,
                         event, SparseRegime::kScale, rg.instances);
}

std::vector<ve::RealizedScenario> realize_grid(int scenarios, int procs,
                                               int tasks, int ncom, int wmin,
                                               double self_lo, double self_hi,
                                               std::uint64_t seed);

/// Scoring-dominated regime: the dense paper recipe with far more tasks
/// than processors, a narrow master link (ncom) draining commits slowly,
/// and minimal per-task work, so the dynamic scheduler re-plans a large
/// pool nearly every slot and the wall time concentrates in the
/// heuristics' scoring loops (CT estimates plus the Markov expectations)
/// over a mostly-UP eligible set.  The regime's shape is fixed (not
/// CLI-derived, except under --smoke) so its records stay comparable
/// across benchmark runs.  Simulations are built once and their shared
/// realizations warmed by untimed passes, so both timed legs replay
/// identical availability; ExpectationCache::set_bypass provides the
/// same-binary A/B, the bypass leg running the pre-change scalar scoring
/// loops verbatim — per-element virtual dispatch, every Markov
/// expectation re-derived per score, random weights recomputed per pick.
struct ScoringRegime {
    vs::EngineConfig cfg;
    std::vector<vs::Simulation> sims;
};

Measurement measure_scoring(const ScoringRegime& rg,
                            const std::vector<std::string>& heuristics,
                            int repeat, bool bypass) {
    const auto& registry = va::SchedulerRegistry::instance();
    std::vector<std::unique_ptr<vs::Scheduler>> scheds;
    scheds.reserve(heuristics.size());
    for (const auto& name : heuristics)
        scheds.push_back(registry.make(name));

    vm::ExpectationCache::set_bypass(bypass);
    Measurement m;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeat; ++r) {
        for (const auto& sim : rg.sims) {
            for (const auto& sched : scheds) {
                const auto metrics = sim.run(*sched);
                m.slots += metrics.makespan;
                ++m.runs;
            }
        }
    }
    const auto stop = std::chrono::steady_clock::now();
    vm::ExpectationCache::set_bypass(false);
    m.wall_seconds = std::chrono::duration<double>(stop - start).count();
    return m;
}

ScoringRegime prepare_scoring(const vs::EngineConfig& base_cfg,
                              int scenarios, int procs, int ncom,
                              std::uint64_t seed) {
    ScoringRegime rg;
    rg.cfg = base_cfg;
    rg.cfg.iterations = 3;
    rg.cfg.tasks_per_iteration = 4 * procs; // contended: every round scores
    const auto instances = realize_grid(
        scenarios, procs, rg.cfg.tasks_per_iteration, ncom, /*wmin=*/2, 0.90,
        0.99, volsched::util::mix_seed(seed, 0x5C0EULL, 0));
    rg.sims.reserve(instances.size());
    for (const auto& rs : instances) {
        auto builder = vs::Simulation::builder();
        builder.platform(rs.platform)
            .markov(rs.chains)
            .config(rg.cfg)
            .seed(seed);
        rg.sims.push_back(builder.build());
    }
    return rg;
}

std::vector<ve::RealizedScenario> realize_grid(int scenarios, int procs,
                                               int tasks, int ncom, int wmin,
                                               double self_lo, double self_hi,
                                               std::uint64_t seed) {
    std::vector<ve::RealizedScenario> instances;
    instances.reserve(static_cast<std::size_t>(scenarios));
    for (int s = 0; s < scenarios; ++s) {
        ve::Scenario sc;
        sc.p = procs;
        sc.tasks = tasks;
        sc.ncom = ncom;
        sc.wmin = wmin;
        sc.recipe.self_lo = self_lo;
        sc.recipe.self_hi = self_hi;
        sc.seed = volsched::util::mix_seed(seed, 0xB3C4ULL, s);
        instances.push_back(ve::realize(sc));
    }
    return instances;
}

} // namespace

int main(int argc, char** argv) {
    volsched::util::Cli cli(
        "bench_engine",
        "Measures engine throughput on the paper grid (1 vs full heuristic "
        "set per instance), the event core vs the slot loop, and batched "
        "scoring");
    cli.add_int("procs", 20, "processors per platform");
    cli.add_int("tasks", 10, "tasks per iteration");
    cli.add_int("ncom", 5, "master transfer slots");
    cli.add_int("wmin", 2, "minimum per-task cost");
    cli.add_int("iterations", 10, "application iterations per run");
    cli.add_int("scenarios", 4, "scenario draws per measurement");
    cli.add_int("repeat", 3, "measurement repetitions");
    cli.add_int("seed", 1337, "master seed");
    cli.add_string("heuristics", "",
                   "comma-separated specs (default: the 19-spec paper set "
                   "plus extensions)");
    cli.add_string("json", "", "write machine-readable results to this path");
    cli.add_flag("smoke", "tiny configuration for CI perf smoke");
    if (!cli.parse(argc, argv)) return cli.exit_code();

    int procs = static_cast<int>(cli.get_int("procs"));
    int scenarios = static_cast<int>(cli.get_int("scenarios"));
    int repeat = static_cast<int>(cli.get_int("repeat"));
    int iterations = static_cast<int>(cli.get_int("iterations"));
    const int tasks = static_cast<int>(cli.get_int("tasks"));
    const int ncom = static_cast<int>(cli.get_int("ncom"));
    const int wmin = static_cast<int>(cli.get_int("wmin"));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    if (cli.get_flag("smoke")) {
        procs = 8;
        scenarios = 2;
        repeat = 1;
        iterations = 3;
    }

    std::vector<std::string> heuristics =
        volsched::util::split_list(cli.get_string("heuristics"));
    if (heuristics.empty()) {
        heuristics = vc::all_heuristic_names();
        const auto& ext = vc::extension_heuristic_names();
        heuristics.insert(heuristics.end(), ext.begin(), ext.end());
    }
    const std::vector<std::string> first_only = {heuristics.front()};
    const auto nh = std::to_string(heuristics.size());

    vs::EngineConfig cfg;
    cfg.iterations = iterations;
    cfg.tasks_per_iteration = tasks;

    std::printf("bench_engine: %d scenarios x %d repeats, p=%d, %zu "
                "heuristics\n\n",
                scenarios, repeat, procs, heuristics.size());

    // --- Paper grid: the paper recipe (self-transition 0.90..0.99). -------
    const auto paper = realize_grid(scenarios, procs, tasks, ncom, wmin,
                                    0.90, 0.99, seed);
    std::vector<vb::BenchRecord> records;
    // The 1-heuristic leg runs the heuristic set's multiplier extra times
    // so every measurement covers comparable wall time.
    const int repeat_one = repeat * static_cast<int>(heuristics.size());
    const auto shared_full = measure(paper, heuristics, cfg, seed, repeat);
    const auto shared_one = measure(paper, first_only, cfg, seed, repeat_one);
    records.push_back(to_record("engine/shared-" + nh + "h", shared_full));
    records.push_back(to_record("engine/shared-1h", shared_one));

    // --- Event core: the scoring-sparse regime, where the slot loop still
    // steps every slot of a long computation but the event core jumps to
    // the next completion/state change in one arithmetic move.
    const auto sparse = prepare_desktop_grid_sparse(cfg, seed, repeat_one);
    const auto sparse_event = measure_desktop_grid_sparse(sparse, seed,
                                                          repeat_one,
                                                          /*event=*/true);
    const auto sparse_slot = measure_desktop_grid_sparse(sparse, seed,
                                                         repeat_one,
                                                         /*event=*/false);
    records.push_back(
        to_record("engine/desktop-grid-sparse-event", sparse_event));
    records.push_back(
        to_record("engine/desktop-grid-sparse-slot", sparse_slot));

    // --- Scoring: the dense contended regime where the wall time lives in
    // the heuristics' scoring loops — batched contiguous scoring with the
    // expectation cache on (the default) vs the pre-change scalar loops
    // (every Markov expectation re-derived per score), same binary, same
    // pre-sampled realizations.  Measured twice: over the full heuristic
    // set (the aggregate is diluted by heuristics that never consult the
    // Markov formulas) and over the P_UD-scoring subset, whose pow-heavy
    // closed form is what the cache actually memoizes.
    const int scoring_procs = cli.get_flag("smoke") ? procs : 96;
    const int scoring_scenarios = cli.get_flag("smoke") ? 1 : 2;
    const int scoring_ncom = 2;
    const std::vector<std::string> pud_set = {"ud", "ud*", "hybrid"};
    const auto scoring = prepare_scoring(cfg, scoring_scenarios,
                                         scoring_procs, scoring_ncom, seed);
    // Untimed passes materialize every shared realization out to the
    // longest heuristic's horizon before the timed legs replay them.
    (void)measure_scoring(scoring, heuristics, 1, /*bypass=*/false);
    (void)measure_scoring(scoring, pud_set, 1, /*bypass=*/false);
    const auto scoring_cached = measure_scoring(scoring, heuristics, repeat,
                                                /*bypass=*/false);
    const auto scoring_bypass = measure_scoring(scoring, heuristics, repeat,
                                                /*bypass=*/true);
    const auto pud_cached = measure_scoring(scoring, pud_set, repeat,
                                            /*bypass=*/false);
    const auto pud_bypass = measure_scoring(scoring, pud_set, repeat,
                                            /*bypass=*/true);
    records.push_back(
        to_record("engine/scoring-cached-" + nh + "h", scoring_cached));
    records.push_back(
        to_record("engine/scoring-bypass-" + nh + "h", scoring_bypass));
    records.push_back(to_record("engine/scoring-cached-pud3h", pud_cached));
    records.push_back(to_record("engine/scoring-bypass-pud3h", pud_bypass));

    volsched::util::TextTable table(
        {"Benchmark", "runs", "slots/sec", "wall s"});
    for (std::size_t c = 1; c <= 3; ++c) table.align_right(c);
    for (const auto& rec : records)
        table.add_row({rec.name, std::to_string(rec.iterations),
                       volsched::util::TextTable::num(rec.slots_per_sec, 0),
                       volsched::util::TextTable::num(rec.wall_seconds, 3)});
    std::printf("%s", table.render("Engine throughput").c_str());

    std::printf("\n");
    if (sparse_slot.wall_seconds > 0 && sparse_event.slots > 0)
        std::printf("event-core speedup (scoring-sparse fleet): %.2fx "
                    "(%.0f%% of slots elided)\n",
                    sparse_slot.wall_seconds / sparse_event.wall_seconds,
                    100.0 * static_cast<double>(sparse_event.elided) /
                        static_cast<double>(sparse_event.slots));
    if (scoring_cached.wall_seconds > 0 && scoring_bypass.wall_seconds > 0)
        std::printf("batched-scoring speedup (scoring-dominated regime, "
                    "full %s-spec set): %.2fx\n",
                    nh.c_str(),
                    scoring_bypass.wall_seconds /
                        scoring_cached.wall_seconds);
    if (pud_cached.wall_seconds > 0 && pud_bypass.wall_seconds > 0)
        std::printf("batched-scoring speedup (scoring-dominated regime, "
                    "P_UD-scoring subset): %.2fx\n\n",
                    pud_bypass.wall_seconds / pud_cached.wall_seconds);

    const std::string json = cli.get_string("json");
    if (!json.empty() && !vb::write_bench_json(json, "bench_engine", records))
        return 1;
    return 0;
}
