#include "exp/sweep.hpp"

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace volsched::exp {

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

SweepResult run_sweep(const SweepConfig& cfg,
                      const std::vector<std::string>& heuristics) {
    // Resolve every spec once up front: a typo fails here with the
    // registry's did-you-mean message instead of throwing mid-sweep on a
    // worker thread.
    for (const auto& name : heuristics)
        api::SchedulerRegistry::instance().validate(name);

    SweepResult result(heuristics);

    const std::vector<GridJob> jobs = grid_jobs(cfg);

    const long long total_instances =
        static_cast<long long>(jobs.size()) * cfg.trials_per_scenario;
    std::atomic<long long> completed{0};

    // Per-job local tables, merged sequentially afterwards so the result is
    // bit-identical regardless of thread interleaving.
    std::vector<DfbTable> local(jobs.size(), DfbTable(heuristics.size()));

    // Records leave in job order whatever order the pool finishes jobs in:
    // a finished job's records wait until every earlier job has emitted,
    // so the hook sees the 1-thread sequence at any thread count.
    std::mutex record_mutex;
    std::vector<std::vector<InstanceRecord>> held(cfg.record ? jobs.size()
                                                             : 0);
    std::vector<char> finished(held.size(), 0);
    std::size_t next_to_emit = 0;

    util::ThreadPool pool(cfg.threads);
    pool.parallel_for(jobs.size(), [&](std::size_t j) {
        const GridJob& job = jobs[j];
        const RealizedScenario rs = realize(job.scenario);
        std::vector<InstanceRecord> records;
        for (int trial = 0; trial < cfg.trials_per_scenario; ++trial) {
            const std::uint64_t trial_seed =
                util::mix_seed(cfg.master_seed, 0x54524cULL, job.seed_ordinal,
                               static_cast<std::uint64_t>(trial));
            const auto outcome =
                run_instance(rs, job.scenario.tasks, heuristics, cfg.run,
                             trial_seed, job.scenario.checkpoint);
            local[j].add_instance(outcome.makespans);
            if (cfg.record) {
                InstanceRecord rec;
                rec.scenario_ordinal = job.ordinal;
                rec.trial = trial;
                rec.scenario = job.scenario;
                rec.makespans = outcome.makespans;
                records.push_back(std::move(rec));
            }
            const long long done = ++completed;
            if (cfg.progress) cfg.progress(done, total_instances);
        }
        if (!cfg.record) return;
        std::lock_guard lock(record_mutex);
        held[j] = std::move(records);
        finished[j] = 1;
        for (; next_to_emit < held.size() && finished[next_to_emit];
             ++next_to_emit) {
            for (const InstanceRecord& rec : held[next_to_emit])
                cfg.record(rec);
            held[next_to_emit] = {};
        }
    });

    for (std::size_t j = 0; j < jobs.size(); ++j)
        merge_job_tables(result, jobs[j].scenario, local[j]);
    return result;
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
