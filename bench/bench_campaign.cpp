/// \file bench_campaign.cpp
/// Campaign-layer throughput: how much the streaming sinks, checkpoint
/// manifests, and deterministic emission cost on top of the raw in-memory
/// sweep — and what the scale-out machinery buys back.  Runs the same grid
/// three ways:
///
///   run_sweep                 all in memory, no IO (the speed-of-light bar)
///   run_campaign (pipeline)   the completion pipeline: workers run ahead
///                             while the emitter overlaps sink writes +
///                             checkpoint fsyncs with compute
///   run_parallel_campaign     the same grid split over --shards in-process
///                             shards on one shared pool (shard emitters
///                             fsync concurrently)
///
/// All three produce the same instance set, so instances/second is directly
/// comparable.  A checkpoint-frequent cadence (--checkpoint 1) makes the
/// runs fsync-bound — the regime where the pipeline's compute/IO overlap
/// and the parallel shards' concurrent emitters actually show up; a large
/// cadence measures pure emission overhead instead.
///
///   bench_campaign --scenarios 2 --trials 2 --checkpoint 1 --shards 3
///                  --json bench_campaign.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "report.hpp"
#include "volsched/volsched.hpp"

int main(int argc, char** argv) {
    using namespace volsched;
    using clock = std::chrono::steady_clock;

    util::Cli cli("bench_campaign",
                  "streaming-campaign overhead and scale-out A/B vs the "
                  "in-memory sweep");
    cli.add_string("heuristics", "greedy", "'all', 'greedy', or a spec list");
    cli.add_int("scenarios", 2, "scenario draws per grid cell");
    cli.add_int("trials", 2, "trials per scenario");
    cli.add_int("checkpoint", 8,
                "jobs per durable checkpoint (1: fsync-bound regime)");
    cli.add_int("shards", 3, "in-process shards for the parallel run");
    cli.add_int("threads", 0, "worker threads (0: hardware)");
    cli.add_int("iterations", 0,
                "engine iterations per instance (0: builder default; 1 with "
                "--checkpoint 1 gives the fsync-dominated regime)");
    cli.add_int("processors", 0, "platform processors (0: builder default)");
    cli.add_int("seed", 20110516, "master seed");
    cli.add_int("repeat", 1,
                "measurement repetitions per driver; best (minimum) wall "
                "time wins, shielding the A/B from disk-latency noise");
    cli.add_flag("csv", "also stream the CSV sink");
    cli.add_flag("keep", "keep the output directories (default: delete)");
    cli.add_string("json", "", "write bench/report.hpp JSON to this path");
    cli.add_string("tag", "",
                   "suffix for bench record names (-<tag>), so records from "
                   "different regimes can coexist in one trajectory file");
    if (!cli.parse(argc, argv)) return cli.exit_code();

    const int checkpoint = static_cast<int>(cli.get_int("checkpoint"));
    const int shards = static_cast<int>(cli.get_int("shards"));
    if (shards < 1) {
        std::fprintf(stderr, "error: --shards must be >= 1\n");
        return 2;
    }

    api::ExperimentBuilder experiment;
    experiment.heuristic_set(cli.get_string("heuristics"))
        .scenarios_per_cell(static_cast<int>(cli.get_int("scenarios")))
        .trials(static_cast<int>(cli.get_int("trials")))
        .threads(static_cast<std::size_t>(cli.get_int("threads")))
        .seed(static_cast<std::uint64_t>(cli.get_int("seed")));
    if (cli.get_int("iterations") > 0)
        experiment.iterations(static_cast<int>(cli.get_int("iterations")));
    if (cli.get_int("processors") > 0)
        experiment.processors(static_cast<int>(cli.get_int("processors")));

    const auto root = std::filesystem::temp_directory_path() /
                      "volsched_bench_campaign";
    std::filesystem::remove_all(root);
    const auto secs = [](clock::time_point a, clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };
    auto campaign = [&](const char* sub) {
        return experiment.campaign()
            .directory(root / sub)
            .checkpoint_every(checkpoint)
            .csv(cli.get_flag("csv"))
            .fresh();
    };

    const int repeat =
        std::max(1, static_cast<int>(cli.get_int("repeat")));
    // Each driver runs `repeat` times interleaved round-robin (so a slow
    // phase of the machine penalizes every driver equally); the minimum
    // wall time per driver is reported.
    auto timed = [&](auto&& fn) {
        const auto a = clock::now();
        fn();
        return secs(a, clock::now());
    };
    double sweep_s = 0, piped_s = 0, parallel_s = 0;
    auto best = [](double& slot, double measured) {
        slot = slot == 0 ? measured : std::min(slot, measured);
    };
    double instances = 0;
    std::uintmax_t jsonl_bytes = 0;
    bool complete = true;
    for (int r = 0; r < repeat; ++r) {
        best(sweep_s, timed([&] {
                 instances = static_cast<double>(
                     experiment.run().overall.instances());
             }));
        best(piped_s, timed([&] {
                 const auto piped = campaign("pipeline").run();
                 complete = complete && piped.complete;
                 jsonl_bytes = std::filesystem::file_size(piped.jsonl_path);
             }));
        best(parallel_s, timed([&] {
                 complete = complete && campaign("parallel")
                                            .parallel(shards)
                                            .run_parallel()
                                            .complete;
             }));
    }
    const std::string ckpt = "ckpt" + std::to_string(checkpoint);
    const std::string shard_tag = std::to_string(shards) + "shard";

    util::TextTable table({"driver", "seconds", "instances/s", "output"});
    for (std::size_t c = 1; c < 4; ++c) table.align_right(c);
    table.add_row({"run_sweep (in-memory)", util::TextTable::num(sweep_s, 3),
                   util::TextTable::num(instances / sweep_s, 1), "-"});
    table.add_row({"run_campaign pipeline/" + ckpt,
                   util::TextTable::num(piped_s, 3),
                   util::TextTable::num(instances / piped_s, 1),
                   std::to_string(jsonl_bytes) + " B"});
    table.add_row({"run_parallel_campaign " + shard_tag + "/" + ckpt,
                   util::TextTable::num(parallel_s, 3),
                   util::TextTable::num(instances / parallel_s, 1),
                   std::to_string(shards) + " sink sets"});
    std::printf("%s", table.render("campaign throughput, " +
                                   std::to_string(static_cast<long long>(
                                       instances)) +
                                   " instances")
                          .c_str());
    std::printf("streaming overhead (pipeline vs sweep): %+.1f%%\n",
                100.0 * (piped_s - sweep_s) / sweep_s);
    std::printf("parallel %d-shard vs single shard:       %+.1f%%\n", shards,
                100.0 * (piped_s - parallel_s) / piped_s);

    if (!complete) {
        std::fprintf(stderr, "error: a campaign run did not complete\n");
        return 1;
    }

    int exit_code = 0;
    const std::string json = cli.get_string("json");
    if (!json.empty()) {
        const auto iters = static_cast<long long>(instances);
        std::string tag = cli.get_string("tag");
        if (!tag.empty()) tag = "-" + tag;
        const std::vector<benchtool::BenchRecord> records = {
            {"campaign/sweep-mem" + tag, iters, sweep_s,
             instances / sweep_s},
            {"campaign/pipeline-" + ckpt + tag, iters, piped_s,
             instances / piped_s},
            {"campaign/parallel-" + shard_tag + "-" + ckpt + tag, iters,
             parallel_s, instances / parallel_s},
        };
        if (!benchtool::write_bench_json(json, "bench_campaign", records))
            exit_code = 1;
    }

    if (!cli.get_flag("keep")) std::filesystem::remove_all(root);
    else std::printf("kept %s\n", root.string().c_str());
    return exit_code;
}
