#pragma once
/// \file campaign_builder.hpp
/// Fluent composition of sharded, resumable campaigns on top of
/// ExperimentBuilder:
///
///   auto outcome = api::ExperimentBuilder()
///                      .greedy_heuristics()
///                      .scenarios_per_cell(10)
///                      .trials(10)
///                      .seed(0xC0FFEE)
///                      .campaign()
///                      .directory("out/table3")
///                      .shard(2, 4)          // this machine runs shard 2/4
///                      .checkpoint_every(16) // jobs per durable checkpoint
///                      .run();
///
/// run() drives exp::run_campaign: records stream to
/// <directory>/shard-k-of-N/records.jsonl, progress checkpoints land in
/// MANIFEST, and an interrupted run resumes from the last checkpoint when
/// invoked again with the same configuration.  exp::merge_shards combines
/// the shard outputs into tables bit-identical to an unsharded run.

#include <filesystem>
#include <functional>

#include "exp/campaign.hpp"

namespace volsched::api {

class CampaignBuilder {
public:
    /// Normally obtained from ExperimentBuilder::campaign(), which fills in
    /// the validated sweep configuration and heuristic list.
    explicit CampaignBuilder(exp::CampaignConfig config);

    /// Campaign root; the shard writes into <dir>/shard-<k>-of-<N>/.
    CampaignBuilder& directory(std::filesystem::path dir);
    /// This process's shard (1-based index, total count).  Default 1/1.
    CampaignBuilder& shard(int index, int count);
    /// Durable-checkpoint cadence in scenario draws.
    CampaignBuilder& checkpoint_every(int jobs);
    /// Discard any previous output instead of resuming from it.
    CampaignBuilder& fresh();
    /// Stop after N checkpoints (time-sliced operation); 0 runs to the end.
    CampaignBuilder& stop_after_batches(int batches);
    CampaignBuilder& progress(std::function<void(long long, long long)> cb);
    /// Keep an atomically-replaced status.json heartbeat in each shard
    /// directory (exp/status.hpp) for `volsched_campaign status` and other
    /// observers.  Off by default; results are identical either way.
    CampaignBuilder& heartbeat(bool on = true);
    /// Sets the shard count for run_parallel(): all N shards driven from
    /// this process over one shared worker pool.
    CampaignBuilder& parallel(int shard_count);

    /// The assembled configuration (directory resolved to the shard
    /// sub-directory).  Throws std::invalid_argument when incomplete.
    [[nodiscard]] exp::CampaignConfig config() const;

    /// The assembled configuration with the directory left at the campaign
    /// root (shard sub-directories are resolved per shard), as
    /// run_parallel() consumes it.
    [[nodiscard]] exp::CampaignConfig parallel_config() const;

    /// Runs (or resumes) this shard.
    exp::CampaignResult run() const;

    /// Runs (or resumes) every shard in-process — see
    /// exp::run_parallel_campaign.  Uses the .parallel(N) shard count
    /// (.shard() index is ignored).
    exp::ParallelCampaignResult run_parallel() const;

private:
    exp::CampaignConfig config_;
    std::filesystem::path root_;
};

} // namespace volsched::api
