#pragma once
/// \file sweep.hpp
/// The in-memory grid driver: Table 1 grid x scenarios x trials, each
/// instance run under every heuristic, reduced into overall and per-wmin
/// degradation-from-best tables on the campaign's completion pipeline
/// (exp/campaign.cpp) without sinks.  Every instance derives its own RNG
/// streams from the master seed, so results ignore thread count and order.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/dfb.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sink.hpp"

namespace volsched::exp {

struct SweepConfig {
    std::vector<int> tasks_values{5, 10, 20, 40}; ///< paper's n
    std::vector<int> ncom_values{5, 10, 20};
    std::vector<int> wmin_values{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    /// Checkpoint-policy axis (ckpt registry specs); the default single
    /// "none" reproduces the paper's grid — enumeration order, ordinals and
    /// seeds — bit-exactly.  With several values the classic grid is
    /// replicated per policy, and the replicas share their scenario/trial
    /// seeds (see GridJob::seed_ordinal) so each policy faces the identical
    /// platform draws and availability realizations.
    std::vector<std::string> checkpoint_values{"none"};
    int scenarios_per_cell = 3;   ///< paper: 247
    int trials_per_scenario = 3;  ///< paper: 10
    int p = 20;
    double tdata_factor = 1.0;
    double tprog_factor = 5.0;
    RunConfig run;
    std::uint64_t master_seed = 0xC0FFEEULL;
    std::size_t threads = 0; ///< 0: hardware concurrency
    /// Optional progress callback (instances completed, instances total).
    /// CONCURRENCY: invoked from pool worker threads, potentially several
    /// at once — implementations must be thread-safe and cheap (every
    /// instance reports; rate-limit any output.  The tools use an atomic
    /// last-print timestamp for this).  A throw fails the run (rethrown).
    std::function<void(long long, long long)> progress;
    /// Optional raw-result hook, called once per instance with the full
    /// InstanceRecord (scenario, grid ordinal, trial, per-heuristic
    /// makespans).  Both drivers call it on the pipeline's emitter — the
    /// thread that called run_sweep or run_campaign — in job order (a
    /// job's trials in order), the same sequence at every thread count, so
    /// implementations need no locking; run_parallel_campaign wraps it in a
    /// shared mutex across its shard emitters.  A throw fails the run.
    /// Wire a JsonlSink here to export full distributions:
    ///   cfg.record = [&](const InstanceRecord& r) { sink.write(r); };
    std::function<void(const InstanceRecord&)> record;
};

/// One scenario draw of the Table-1 grid, tagged with its global position
/// in the enumeration.  The seed ordinal — not the thread, not the shard —
/// seeds the scenario and its trials, which is what makes sweep results
/// independent of thread count and campaign sharding.
struct GridJob {
    Scenario scenario;
    /// Global position in the enumeration (unique; drives sharding and
    /// record identity).
    std::uint64_t ordinal = 0;
    /// Position within the classic (tasks, ncom, wmin, draw) grid — equal
    /// to `ordinal` modulo the checkpoint axis, so jobs that differ only in
    /// checkpoint policy share every RNG stream.  With the default
    /// single-"none" axis, seed_ordinal == ordinal.
    std::uint64_t seed_ordinal = 0;
};

/// Enumerates the full grid in canonical order (checkpoint outermost, then
/// tasks, ncom, wmin, draw), deriving each scenario's seed from the master
/// seed and its *seed* ordinal.
std::vector<GridJob> grid_jobs(const SweepConfig& cfg);

struct SweepResult {
    std::vector<std::string> heuristics;
    DfbTable overall;
    /// Keyed by wmin — the Figure 2 series.
    std::map<int, DfbTable> by_wmin;
    /// Keyed by tasks-per-iteration (the paper's n).
    std::map<int, DfbTable> by_tasks;
    /// Keyed by the master's concurrency bound ncom.
    std::map<int, DfbTable> by_ncom;
    /// Keyed by checkpoint-policy spec (a single "none" key for the
    /// classic, checkpoint-free grid).
    std::map<std::string, DfbTable> by_checkpoint;

    SweepResult(std::vector<std::string> names)
        : heuristics(std::move(names)), overall(heuristics.size()) {}
};

/// The one grid check, made by run_sweep, run_campaign,
/// run_parallel_campaign and api::ExperimentBuilder before any job runs:
/// heuristic specs and a checkpoint axis that resolve in their registries,
/// plus validate_grid.  Throws std::invalid_argument.
void validate_sweep(const SweepConfig& cfg,
                    const std::vector<std::string>& heuristics);

/// validate_sweep's checks of the grid's shape, without resolving a spec:
/// non-empty axes of positive values, a non-empty checkpoint axis,
/// positive counts, non-negative replica cap and checkpoint cost, and
/// finite non-negative factors.  parse_campaign_header makes them on every
/// header it reads.  Throws std::invalid_argument naming the field.
void validate_grid(const SweepConfig& cfg);

/// Runs the sweep; deterministic for a fixed config regardless of threads.
SweepResult run_sweep(const SweepConfig& cfg,
                      const std::vector<std::string>& heuristics);

/// The canonical per-job reduction step: merges one job's local table into
/// the overall and by-wmin/by-tasks/by-ncom tables.  run_sweep, the
/// campaign runner, and the shard-merge replay all reduce through this one
/// function — the merging order is the bit-identical contract between
/// sharded and unsharded results, so it lives in exactly one place.
void merge_job_tables(SweepResult& result, const Scenario& scenario,
                      const DfbTable& local);

} // namespace volsched::exp
