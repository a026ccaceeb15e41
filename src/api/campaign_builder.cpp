#include "api/campaign_builder.hpp"

#include <stdexcept>

namespace volsched::api {

CampaignBuilder::CampaignBuilder(exp::CampaignConfig config)
    : config_(std::move(config)) {}

CampaignBuilder& CampaignBuilder::directory(std::filesystem::path dir) {
    root_ = std::move(dir);
    return *this;
}

CampaignBuilder& CampaignBuilder::shard(int index, int count) {
    config_.shard_index = index;
    config_.shard_count = count;
    return *this;
}

CampaignBuilder& CampaignBuilder::checkpoint_every(int jobs) {
    config_.checkpoint_jobs = jobs;
    return *this;
}

CampaignBuilder& CampaignBuilder::fresh() {
    config_.resume = false;
    return *this;
}

CampaignBuilder& CampaignBuilder::stop_after_batches(int batches) {
    config_.stop_after_batches = batches;
    return *this;
}

CampaignBuilder&
CampaignBuilder::progress(std::function<void(long long, long long)> cb) {
    config_.sweep.progress = std::move(cb);
    return *this;
}

CampaignBuilder& CampaignBuilder::heartbeat(bool on) {
    config_.heartbeat = on;
    return *this;
}

CampaignBuilder& CampaignBuilder::parallel(int shard_count) {
    config_.shard_count = shard_count;
    return *this;
}

exp::CampaignConfig CampaignBuilder::config() const {
    if (root_.empty())
        throw std::invalid_argument(
            "CampaignBuilder: no output directory; call .directory(...)");
    if (config_.shard_count < 1 || config_.shard_index < 1 ||
        config_.shard_index > config_.shard_count)
        throw std::invalid_argument(
            "CampaignBuilder: shard " + std::to_string(config_.shard_index) +
            "/" + std::to_string(config_.shard_count) + " is out of range");
    if (config_.checkpoint_jobs < 1)
        throw std::invalid_argument(
            "CampaignBuilder: checkpoint_every must be >= 1");
    exp::CampaignConfig out = config_;
    out.directory = root_ / exp::shard_directory_name(config_.shard_index,
                                                      config_.shard_count);
    return out;
}

exp::CampaignConfig CampaignBuilder::parallel_config() const {
    exp::CampaignConfig out = config();
    out.directory = root_;
    return out;
}

exp::CampaignResult CampaignBuilder::run() const {
    return exp::run_campaign(config());
}

exp::ParallelCampaignResult CampaignBuilder::run_parallel() const {
    return exp::run_parallel_campaign(parallel_config());
}

} // namespace volsched::api
