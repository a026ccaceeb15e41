#include "api/experiment_builder.hpp"

#include <stdexcept>

#include "api/campaign_builder.hpp"
#include "api/registry.hpp"
#include "ckpt/registry.hpp"
#include "core/factory.hpp"
#include "util/cli.hpp"

namespace volsched::api {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument("ExperimentBuilder: " + what);
}

} // namespace

ExperimentBuilder::ExperimentBuilder() = default;

ExperimentBuilder&
ExperimentBuilder::heuristics(std::vector<std::string> specs) {
    // Validate eagerly: a bad spec should fail at composition time with the
    // registry's did-you-mean message, not thousands of instances into the
    // sweep on a worker thread.
    for (const auto& spec : specs)
        SchedulerRegistry::instance().validate(spec);
    heuristics_ = std::move(specs);
    return *this;
}

ExperimentBuilder& ExperimentBuilder::all_heuristics() {
    return heuristics(core::all_heuristic_names());
}

ExperimentBuilder& ExperimentBuilder::greedy_heuristics() {
    return heuristics(core::greedy_heuristic_names());
}

ExperimentBuilder&
ExperimentBuilder::heuristic_set(const std::string& description) {
    if (description == "all") return all_heuristics();
    if (description == "greedy") return greedy_heuristics();
    auto specs = util::split_list(description);
    if (specs.empty())
        fail("heuristic set '" + description +
             "' names no specs; want 'all', 'greedy', or a comma-separated "
             "spec list");
    return heuristics(std::move(specs));
}

ExperimentBuilder& ExperimentBuilder::tasks(std::vector<int> values) {
    config_.tasks_values = std::move(values);
    return *this;
}

ExperimentBuilder& ExperimentBuilder::ncom(std::vector<int> values) {
    config_.ncom_values = std::move(values);
    return *this;
}

ExperimentBuilder& ExperimentBuilder::wmin(std::vector<int> values) {
    config_.wmin_values = std::move(values);
    return *this;
}

ExperimentBuilder& ExperimentBuilder::processors(int p) {
    config_.p = p;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::scenarios_per_cell(int n) {
    config_.scenarios_per_cell = n;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::trials(int n) {
    config_.trials_per_scenario = n;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::tdata_factor(double f) {
    config_.tdata_factor = f;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::tprog_factor(double f) {
    config_.tprog_factor = f;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::iterations(int n) {
    config_.run.iterations = n;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::replica_cap(int n) {
    config_.run.replica_cap = n;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::max_slots(long long n) {
    config_.run.max_slots = n;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::plan_class(sim::SchedulerClass c) {
    config_.run.plan_class = c;
    return *this;
}

ExperimentBuilder&
ExperimentBuilder::checkpoints(std::vector<std::string> specs) {
    // Same eager-validation story as heuristics(): a typo fails at
    // composition time with the checkpoint registry's did-you-mean message.
    for (const auto& spec : specs)
        ckpt::CheckpointRegistry::instance().validate(spec);
    config_.checkpoint_values = std::move(specs);
    return *this;
}

ExperimentBuilder& ExperimentBuilder::checkpoint(const std::string& spec) {
    return checkpoints({spec});
}

ExperimentBuilder& ExperimentBuilder::checkpoint_cost(int slots) {
    config_.run.checkpoint_cost = slots;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::audit(bool on) {
    config_.run.audit = on;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::seed(std::uint64_t master_seed) {
    config_.master_seed = master_seed;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::threads(std::size_t n) {
    config_.threads = n;
    return *this;
}

ExperimentBuilder& ExperimentBuilder::progress(
    std::function<void(long long, long long)> callback) {
    config_.progress = std::move(callback);
    return *this;
}

ExperimentBuilder& ExperimentBuilder::record(
    std::function<void(const exp::InstanceRecord&)> sink) {
    config_.record = std::move(sink);
    return *this;
}

exp::SweepConfig ExperimentBuilder::sweep_config() const {
    exp::validate_sweep(config_, heuristics_);
    return config_;
}

const std::vector<std::string>& ExperimentBuilder::heuristic_specs() const {
    return heuristics_;
}

exp::SweepResult ExperimentBuilder::run() const {
    return exp::run_sweep(config_, heuristics_);
}

CampaignBuilder ExperimentBuilder::campaign() const {
    exp::validate_sweep(config_, heuristics_);
    exp::CampaignConfig config;
    config.sweep = config_;
    config.heuristics = heuristics_;
    return CampaignBuilder(std::move(config));
}

} // namespace volsched::api
