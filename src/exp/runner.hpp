#pragma once
/// \file runner.hpp
/// Runs a set of heuristics against one problem instance (scenario x trial
/// seed): every heuristic faces the identical availability realization, so
/// per-instance degradation-from-best is well defined.  The realization is
/// sampled once per instance into a markov::RealizedTraces snapshot and
/// replayed by every heuristic (sampling cost amortized across the set).

#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "sim/engine.hpp"

namespace volsched::exp {

struct InstanceOutcome {
    /// makespans[i] for heuristic i (engine horizon when not completed).
    std::vector<long long> makespans;
    std::vector<sim::RunMetrics> metrics;
};

/// Simulation knobs shared by a whole sweep.
struct RunConfig {
    int iterations = 10;
    int replica_cap = 2;
    long long max_slots = 2'000'000;
    sim::SchedulerClass plan_class = sim::SchedulerClass::Dynamic;
    /// Per-slot invariant auditing (slow; results identical either way).
    bool audit = false;
    /// Master transfer slot-units per checkpoint upload (only consulted
    /// when a scenario's checkpoint spec is not "none").
    int checkpoint_cost = 1;
};

/// Runs each heuristic (by factory name) once on the given realized
/// scenario with the trial-specific seed, under the checkpoint policy named
/// by `checkpoint` ("none" reproduces the paper's model bit-exactly).
InstanceOutcome run_instance(const RealizedScenario& rs, int tasks,
                             const std::vector<std::string>& heuristics,
                             const RunConfig& cfg, std::uint64_t trial_seed,
                             const std::string& checkpoint = "none");

} // namespace volsched::exp
