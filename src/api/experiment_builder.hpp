#pragma once
/// \file experiment_builder.hpp
/// Fluent composition of experimental campaigns: one builder over
/// exp::Scenario / exp::RunConfig / exp::SweepConfig with registry-checked
/// heuristic specs and fail-fast validation.
///
///   auto result = api::ExperimentBuilder()
///                     .heuristics({"emct*", "mct", "thr50:emct"})
///                     .tasks({5, 10})
///                     .ncom({5})
///                     .wmin({1, 2, 3})
///                     .scenarios_per_cell(2)
///                     .trials(2)
///                     .seed(0xC0FFEE)
///                     .run();
///
/// run() drives exp::run_sweep; sweep_config()/heuristic_specs() expose the
/// validated pieces for callers that need the raw campaign description.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/sweep.hpp"

namespace volsched::api {

class CampaignBuilder; // api/campaign_builder.hpp

class ExperimentBuilder {
public:
    ExperimentBuilder();

    /// The heuristic specs to race (registry grammar; validated eagerly so
    /// a typo fails here with a did-you-mean message, not mid-sweep).
    ExperimentBuilder& heuristics(std::vector<std::string> specs);
    /// The paper's seventeen heuristics in Table 2 order.
    ExperimentBuilder& all_heuristics();
    /// The eight greedy heuristics (Table 3 / Figure 2 focus).
    ExperimentBuilder& greedy_heuristics();
    /// CLI-style selection: "all", "greedy", or a comma-separated spec
    /// list ("emct*,mct,thr50:emct").  One implementation for every tool
    /// and bench that takes a --heuristics flag.
    ExperimentBuilder& heuristic_set(const std::string& description);

    // Table 1 grid axes.
    ExperimentBuilder& tasks(std::vector<int> values);
    ExperimentBuilder& ncom(std::vector<int> values);
    ExperimentBuilder& wmin(std::vector<int> values);

    ExperimentBuilder& processors(int p);
    ExperimentBuilder& scenarios_per_cell(int n);
    ExperimentBuilder& trials(int n);
    ExperimentBuilder& tdata_factor(double f);
    ExperimentBuilder& tprog_factor(double f);

    /// The checkpoint-policy axis (ckpt registry specs, validated eagerly):
    /// the classic grid is replicated per policy with shared scenario/trial
    /// seeds, so every policy faces identical draws and realizations.
    /// Default: {"none"}, the paper's checkpoint-free grid.
    ExperimentBuilder& checkpoints(std::vector<std::string> specs);
    /// Sugar: a single-policy axis.
    ExperimentBuilder& checkpoint(const std::string& spec);

    // Per-run engine knobs (exp::RunConfig).
    ExperimentBuilder& iterations(int n);
    ExperimentBuilder& replica_cap(int n);
    ExperimentBuilder& max_slots(long long n);
    ExperimentBuilder& plan_class(sim::SchedulerClass c);
    /// Master transfer slots per checkpoint upload (default 1).
    ExperimentBuilder& checkpoint_cost(int slots);
    /// Per-slot engine invariant auditing (default off; slow).
    ExperimentBuilder& audit(bool on = true);

    ExperimentBuilder& seed(std::uint64_t master_seed);
    ExperimentBuilder& threads(std::size_t n);
    ExperimentBuilder&
    progress(std::function<void(long long, long long)> callback);
    /// Per-instance record hook; wire an exp::JsonlSink here to stream raw
    /// distributions (see API.md "Campaigns").
    ExperimentBuilder&
    record(std::function<void(const exp::InstanceRecord&)> sink);

    /// The validated campaign pieces.  Throws std::invalid_argument on an
    /// empty/invalid heuristic list or a degenerate grid
    /// (exp::validate_sweep, the check both drivers make).
    [[nodiscard]] exp::SweepConfig sweep_config() const;
    [[nodiscard]] const std::vector<std::string>& heuristic_specs() const;

    /// Validates and runs the sweep.
    [[nodiscard]] exp::SweepResult run() const;

    /// Hands the validated sweep to a CampaignBuilder for sharded,
    /// resumable execution with streaming sinks (see API.md "Campaigns").
    [[nodiscard]] CampaignBuilder campaign() const;

private:
    exp::SweepConfig config_;
    std::vector<std::string> heuristics_;
};

} // namespace volsched::api
