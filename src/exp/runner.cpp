#include "exp/runner.hpp"

#include "api/registry.hpp"
#include "ckpt/registry.hpp"

namespace volsched::exp {

InstanceOutcome run_instance(const RealizedScenario& rs, int tasks,
                             const std::vector<std::string>& heuristics,
                             const RunConfig& cfg, std::uint64_t trial_seed,
                             const std::string& checkpoint) {
    sim::EngineConfig ec;
    ec.iterations = cfg.iterations;
    ec.tasks_per_iteration = tasks;
    ec.replica_cap = cfg.replica_cap;
    ec.max_slots = cfg.max_slots;
    ec.plan_class = cfg.plan_class;
    ec.audit = cfg.audit;
    ec.checkpoint_cost = cfg.checkpoint_cost;

    // The "none" fast path keeps the paper's model literally policy-free:
    // the engine runs the exact pre-checkpoint-layer code paths.
    std::unique_ptr<ckpt::CheckpointPolicy> policy;
    if (checkpoint != "none") {
        policy = ckpt::CheckpointRegistry::instance().make(checkpoint);
        ec.checkpoint = policy.get();
    }

    const auto simulation =
        sim::Simulation::from_chains(rs.platform, rs.chains, ec, trial_seed);
    // Every heuristic below replays one shared availability realization,
    // sampled lazily on the first run() and cached by the Simulation: the
    // per-slot sampling cost is paid once per (scenario, trial) — not once
    // per heuristic — and the paper's identical-realization property holds
    // by construction instead of by repeated re-sampling.
    const auto& registry = api::SchedulerRegistry::instance();
    InstanceOutcome out;
    out.makespans.reserve(heuristics.size());
    out.metrics.reserve(heuristics.size());
    for (const auto& name : heuristics) {
        const auto sched = registry.make(name);
        const auto metrics = simulation.run(*sched);
        out.makespans.push_back(metrics.makespan);
        out.metrics.push_back(metrics);
    }
    return out;
}

} // namespace volsched::exp
