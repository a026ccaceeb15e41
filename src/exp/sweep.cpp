#include "exp/sweep.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "api/registry.hpp"
#include "ckpt/registry.hpp"
#include "util/rng.hpp"

namespace volsched::exp {

namespace {

[[noreturn]] void reject(const std::string& what) {
    throw std::invalid_argument("sweep: " + what);
}

void require_positive(const char* what, long long value) {
    if (value <= 0)
        reject(std::string(what) + " must be positive, got " +
               std::to_string(value));
}

void require_axis(const char* what, const std::vector<int>& values) {
    if (values.empty()) reject(std::string(what) + " axis is empty");
    for (int v : values)
        if (v <= 0)
            reject(std::string(what) +
                   " axis contains the non-positive value " +
                   std::to_string(v));
}

} // namespace

void validate_grid(const SweepConfig& cfg) {
    require_axis("tasks", cfg.tasks_values);
    require_axis("ncom", cfg.ncom_values);
    require_axis("wmin", cfg.wmin_values);
    if (cfg.checkpoint_values.empty())
        reject("checkpoint axis is empty; pass at least one policy spec "
               "(ExperimentBuilder: .checkpoints({...}); \"none\" is the "
               "paper's model)");
    require_positive("p (processors)", cfg.p);
    require_positive("scenarios_per_cell", cfg.scenarios_per_cell);
    require_positive("trials_per_scenario", cfg.trials_per_scenario);
    require_positive("iterations", cfg.run.iterations);
    require_positive("max_slots", cfg.run.max_slots);
    if (cfg.run.replica_cap < 0) reject("replica_cap is negative");
    if (cfg.run.checkpoint_cost < 0) reject("checkpoint_cost is negative");
    // isfinite also rejects NaN, which every < comparison would wave
    // through — and which would poison the JSONL campaign headers.
    if (!std::isfinite(cfg.tdata_factor) || cfg.tdata_factor < 0 ||
        !std::isfinite(cfg.tprog_factor) || cfg.tprog_factor < 0)
        reject("tdata/tprog factors must be finite and non-negative");
}

void validate_sweep(const SweepConfig& cfg,
                    const std::vector<std::string>& heuristics) {
    // Spec typos fail here with the registries' did-you-mean messages
    // instead of mid-grid on a worker thread.
    if (heuristics.empty())
        reject("no heuristics to race; pass at least one scheduler spec "
               "(ExperimentBuilder: .heuristics({...}), .all_heuristics() "
               "or .greedy_heuristics())");
    for (const auto& spec : heuristics)
        api::SchedulerRegistry::instance().validate(spec);
    validate_grid(cfg);
    for (const auto& spec : cfg.checkpoint_values)
        ckpt::CheckpointRegistry::instance().validate(spec);
}

std::vector<GridJob> grid_jobs(const SweepConfig& cfg) {
    std::vector<GridJob> jobs;
    jobs.reserve(cfg.checkpoint_values.size() * cfg.tasks_values.size() *
                 cfg.ncom_values.size() * cfg.wmin_values.size() *
                 static_cast<std::size_t>(cfg.scenarios_per_cell));
    // The checkpoint axis is outermost and seeds are derived from the
    // *inner* (classic-grid) ordinal: policies replicate the exact scenario
    // and trial streams, so cross-policy comparisons are same-realization —
    // and with the default single-"none" axis the enumeration, ordinals and
    // seeds are bit-identical to the pre-checkpoint grid.
    std::uint64_t ordinal = 0;
    for (const std::string& ckpt : cfg.checkpoint_values) {
        std::uint64_t seed_ordinal = 0;
        for (int tasks : cfg.tasks_values)
            for (int ncom : cfg.ncom_values)
                for (int wmin : cfg.wmin_values)
                    for (int s = 0; s < cfg.scenarios_per_cell; ++s) {
                        GridJob job;
                        job.scenario.p = cfg.p;
                        job.scenario.tasks = tasks;
                        job.scenario.ncom = ncom;
                        job.scenario.wmin = wmin;
                        job.scenario.tdata_factor = cfg.tdata_factor;
                        job.scenario.tprog_factor = cfg.tprog_factor;
                        job.scenario.checkpoint = ckpt;
                        job.scenario.seed = util::mix_seed(
                            cfg.master_seed, 0x5343u, seed_ordinal);
                        job.ordinal = ordinal++;
                        job.seed_ordinal = seed_ordinal++;
                        jobs.push_back(job);
                    }
    }
    return jobs;
}

void merge_job_tables(SweepResult& result, const Scenario& scenario,
                      const DfbTable& local) {
    const std::size_t num_heuristics = result.heuristics.size();
    auto merge_into = [&](std::map<int, DfbTable>& table, int key) {
        auto [it, inserted] = table.try_emplace(key, num_heuristics);
        it->second.merge(local);
    };
    result.overall.merge(local);
    merge_into(result.by_wmin, scenario.wmin);
    merge_into(result.by_tasks, scenario.tasks);
    merge_into(result.by_ncom, scenario.ncom);
    result.by_checkpoint.try_emplace(scenario.checkpoint, num_heuristics)
        .first->second.merge(local);
}

} // namespace volsched::exp
