/// Campaign scale-out: the completion pipeline, in-process parallel shards,
/// and the queryable index sidecar.  The load-bearing guarantees pinned
/// here: (1) a shard's outputs are byte-identical at any pool size, the
/// narrowest run-ahead window included, (2) an in-process N-shard parallel
/// run is byte-identical to N separate sequential shard processes — and
/// merges bit-identically to the unsharded sweep, (3) kill/resume under the
/// pipelined emitter stays byte-identical, and (4) an indexed query selects
/// exactly the lines a brute-force JSONL scan would, including through the
/// stale/absent-sidecar rebuild path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/campaign_builder.hpp"
#include "api/experiment_builder.hpp"
#include "exp/campaign.hpp"
#include "exp/index_sink.hpp"
#include "exp/sink.hpp"
#include "exp/sweep.hpp"
#include "obs/registry.hpp"
#include "support/golden.hpp"

namespace ve = volsched::exp;
namespace va = volsched::api;
using volsched::test::TempDir;
using volsched::test::read_file;
using volsched::test::write_file;

namespace {

/// Same 8-job / 16-instance grid the campaign tests use.
ve::SweepConfig small_sweep() {
    ve::SweepConfig cfg;
    cfg.tasks_values = {3, 4};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1, 2};
    cfg.scenarios_per_cell = 2;
    cfg.trials_per_scenario = 2;
    cfg.p = 4;
    cfg.run.iterations = 2;
    cfg.master_seed = 99;
    cfg.threads = 2;
    return cfg;
}

const std::vector<std::string> kHeuristics = {"mct", "emct"};

ve::CampaignConfig small_campaign(const std::filesystem::path& dir) {
    ve::CampaignConfig cfg;
    cfg.sweep = small_sweep();
    cfg.heuristics = kHeuristics;
    cfg.directory = dir;
    cfg.checkpoint_jobs = 3; // deliberately not a divisor of 8
    return cfg;
}

void expect_tables_identical(const ve::DfbTable& a, const ve::DfbTable& b) {
    ASSERT_EQ(a.num_heuristics(), b.num_heuristics());
    EXPECT_EQ(a.instances(), b.instances());
    for (std::size_t h = 0; h < a.num_heuristics(); ++h) {
        EXPECT_EQ(a.mean_dfb(h), b.mean_dfb(h));
        EXPECT_EQ(a.dfb(h).variance(), b.dfb(h).variance());
        EXPECT_EQ(a.makespan(h).mean(), b.makespan(h).mean());
        EXPECT_EQ(a.wins(h), b.wins(h));
    }
}

void expect_results_identical(const ve::SweepResult& a,
                              const ve::SweepResult& b) {
    EXPECT_EQ(a.heuristics, b.heuristics);
    expect_tables_identical(a.overall, b.overall);
    ASSERT_EQ(a.by_wmin.size(), b.by_wmin.size());
    for (const auto& [key, table] : a.by_wmin) {
        const auto it = b.by_wmin.find(key);
        ASSERT_NE(it, b.by_wmin.end());
        expect_tables_identical(table, it->second);
    }
}

/// The three durable artifacts of one shard, as raw bytes.
struct ShardBytes {
    std::string jsonl, idx, manifest;
};

ShardBytes shard_bytes(const std::filesystem::path& dir) {
    return {read_file(dir / "records.jsonl"),
            read_file(dir / "records.idx"), read_file(dir / "MANIFEST")};
}

/// Brute force the query contract: scan every record line of every shard,
/// filter on the parsed scenario, and order globally by (ordinal, trial).
std::vector<std::string>
scan_matching_lines(const std::vector<std::filesystem::path>& files,
                    const ve::QueryFilter& f) {
    struct Hit {
        std::uint64_t ordinal;
        int trial;
        std::string line;
    };
    std::vector<Hit> hits;
    for (const auto& file : files) {
        std::ifstream in(file);
        std::string line;
        std::getline(in, line); // header
        while (std::getline(in, line)) {
            const auto rec = ve::JsonlSink::parse_record(line);
            auto in_range = [](auto value, const auto& range) {
                return !range || (value >= range->first &&
                                  value <= range->second);
            };
            if (in_range(rec.scenario_ordinal, f.ordinal) &&
                in_range(rec.scenario.wmin, f.wmin) &&
                in_range(rec.scenario.tasks, f.tasks) &&
                in_range(rec.scenario.ncom, f.ncom))
                hits.push_back({rec.scenario_ordinal, rec.trial, line});
        }
    }
    std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
        return std::tie(a.ordinal, a.trial) < std::tie(b.ordinal, b.trial);
    });
    std::vector<std::string> lines;
    for (auto& h : hits)
        lines.push_back(std::move(h.line));
    return lines;
}

std::vector<std::string>
query_lines(const std::vector<std::filesystem::path>& files,
            const ve::QueryFilter& f, ve::QueryStats* stats = nullptr) {
    std::vector<std::string> lines;
    const auto s = ve::query_shards(
        files, f, [&](const std::string& line) { lines.push_back(line); });
    if (stats)
        *stats = s;
    return lines;
}

} // namespace

TEST(Pipeline, OutputsMatchAcrossThreadCounts) {
    // The emitter writes in (ordinal, trial) order whatever the order jobs
    // finish in, so the pool size must not move a byte of any output.
    TempDir one_dir, four_dir;

    auto one = small_campaign(one_dir.path());
    one.sweep.threads = 1;
    const auto a = ve::run_campaign(one);
    ASSERT_TRUE(a.complete);

    auto four = small_campaign(four_dir.path());
    four.sweep.threads = 4;
    const auto b = ve::run_campaign(four);
    ASSERT_TRUE(b.complete);

    const auto pa = shard_bytes(one_dir.path());
    const auto pb = shard_bytes(four_dir.path());
    EXPECT_EQ(pa.jsonl, pb.jsonl);
    EXPECT_EQ(pa.idx, pb.idx);
    EXPECT_EQ(pa.manifest, pb.manifest);
    expect_results_identical(a.tables, b.tables);
}

TEST(Pipeline, NarrowestWindowDegeneratesSafely) {
    // One pool thread and a checkpoint after every job give the narrowest
    // window auto-sizing produces, max(1, 8 x 1) = 8 jobs, here on a
    // 24-job grid so the window refills on every emission: submit/emit in
    // step, the pipeline's worst case, must still produce the canonical
    // bytes.
    TempDir reference_dir, narrow_dir;
    auto wide = small_campaign(reference_dir.path());
    wide.sweep.scenarios_per_cell = 6;
    const auto reference = ve::run_campaign(wide);
    ASSERT_TRUE(reference.complete);

    auto narrow = small_campaign(narrow_dir.path());
    narrow.sweep.scenarios_per_cell = 6;
    narrow.sweep.threads = 1;
    narrow.checkpoint_jobs = 1;
    ASSERT_TRUE(ve::run_campaign(narrow).complete);
    EXPECT_EQ(read_file(narrow_dir.file("records.jsonl")),
              read_file(reference_dir.file("records.jsonl")));
    EXPECT_EQ(read_file(narrow_dir.file("records.idx")),
              read_file(reference_dir.file("records.idx")));
}

TEST(Pipeline, KilledAndResumedStaysByteIdentical) {
    TempDir uninterrupted_dir, interrupted_dir;

    const auto uninterrupted =
        ve::run_campaign(small_campaign(uninterrupted_dir.path()));
    ASSERT_TRUE(uninterrupted.complete);
    const auto reference = shard_bytes(uninterrupted_dir.path());

    // One checkpoint (3 of 8 jobs durable), then a kill mid-write: torn
    // JSONL tail *and* index entries past the vouched-for header.
    auto sliced = small_campaign(interrupted_dir.path());
    sliced.stop_after_batches = 1;
    const auto first = ve::run_campaign(sliced);
    EXPECT_FALSE(first.complete);
    EXPECT_EQ(first.jobs_done, 3);
    {
        std::ofstream torn(interrupted_dir.file("records.jsonl"),
                           std::ios::app | std::ios::binary);
        torn << "{\"ordinal\":999,\"trial\":0,\"p\":4,\"tas";
        std::ofstream torn_idx(interrupted_dir.file("records.idx"),
                               std::ios::app | std::ios::binary);
        torn_idx << "\x01\x02\x03";
    }

    // The streaming replay rebuilds tables and the sidecar from the durable
    // prefix; the finished run must be indistinguishable from uninterrupted.
    sliced.stop_after_batches = 0;
    const auto resumed = ve::run_campaign(sliced);
    EXPECT_TRUE(resumed.complete);
    const auto healed = shard_bytes(interrupted_dir.path());
    EXPECT_EQ(healed.jsonl, reference.jsonl);
    EXPECT_EQ(healed.idx, reference.idx);
    EXPECT_EQ(healed.manifest, reference.manifest);
    expect_results_identical(resumed.tables, uninterrupted.tables);
}

namespace {

/// What the failing hooks below throw.
struct HookFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// A fresh process registry for one test, uninstalled on every exit, a
/// failed assertion's early return included.
struct ScopedRegistry {
    volsched::obs::Registry reg;
    volsched::obs::Registry* const prev =
        volsched::obs::Registry::install(&reg);

    ScopedRegistry() = default;
    ScopedRegistry(const ScopedRegistry&) = delete;
    ScopedRegistry& operator=(const ScopedRegistry&) = delete;
    ~ScopedRegistry() { volsched::obs::Registry::install(prev); }

    /// The completion pipeline's gauges: window, emitter lag, queue depth.
    std::vector<long long> pipeline_gauges() {
        return {reg.gauge("campaign.window").value(),
                reg.gauge("campaign.emitter_lag").value(),
                reg.gauge("campaign.queue_depth").value()};
    }
};

/// Installs a hook that throws HookFailure once `armed()` says so.
using FailingHook =
    std::function<void(ve::SweepConfig&, std::function<bool()> armed)>;

/// A throwing hook fails both drivers the same way: its exception comes out
/// of the driver, the pipeline takes its occupancy back out of the registry
/// gauges, and a campaign that failed past its first checkpoint resumes
/// from its MANIFEST to the bytes of an uninterrupted run.
void expect_clean_failure(const FailingHook& install) {
    ScopedRegistry registry;
    const std::vector<long long> idle = {0, 0, 0};

    auto sweep = small_sweep();
    std::atomic<int> calls{0};
    install(sweep, [&calls] { return ++calls > 6; });
    EXPECT_THROW((void)ve::run_sweep(sweep, kHeuristics), HookFailure);
    EXPECT_EQ(registry.pipeline_gauges(), idle) << "run_sweep";

    // 24 jobs: the first checkpoint (3 jobs) is durable before the pipeline
    // submits the 20th, as at most 16 jobs (8 per pool thread) run ahead of
    // the emitter.
    const auto campaign = [](const std::filesystem::path& dir) {
        auto cfg = small_campaign(dir);
        cfg.sweep.scenarios_per_cell = 6;
        return cfg;
    };
    TempDir reference_dir, dir;
    const auto uninterrupted = ve::run_campaign(campaign(reference_dir.path()));
    ASSERT_TRUE(uninterrupted.complete);
    const auto reference = shard_bytes(reference_dir.path());

    // Armed once the first checkpoint is durable.
    auto failing = campaign(dir.path());
    const auto manifest_file = ve::manifest_path(dir.path());
    install(failing.sweep,
            [manifest_file] { return std::filesystem::exists(manifest_file); });
    EXPECT_THROW((void)ve::run_campaign(failing), HookFailure);
    EXPECT_EQ(registry.pipeline_gauges(), idle) << "run_campaign";
    const auto checkpointed = ve::read_manifest(dir.path());
    ASSERT_TRUE(checkpointed.has_value());
    EXPECT_GE(checkpointed->jobs_done, 3);
    EXPECT_FALSE(checkpointed->complete);

    // The rerun computes only what the manifest does not vouch for.
    auto rerun = campaign(dir.path());
    std::mutex seen_mutex;
    std::set<long long> seen;
    rerun.sweep.progress = [&](long long done, long long) {
        std::lock_guard lock(seen_mutex);
        seen.insert(done);
    };
    EXPECT_TRUE(ve::run_campaign(rerun).complete);
    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(*seen.begin(), checkpointed->instances_done + 1);
    const auto healed = shard_bytes(dir.path());
    EXPECT_EQ(healed.jsonl, reference.jsonl);
    EXPECT_EQ(healed.idx, reference.idx);
    EXPECT_EQ(healed.manifest, reference.manifest);
    EXPECT_EQ(registry.pipeline_gauges(), idle) << "after the rerun";
}

} // namespace

TEST(Pipeline, ProgressHookThrowingOnAWorkerFailsCleanly) {
    expect_clean_failure([](ve::SweepConfig& cfg, std::function<bool()> armed) {
        cfg.progress = [armed](long long, long long) {
            if (armed()) throw HookFailure("progress hook");
        };
    });
}

TEST(Pipeline, RecordHookThrowingOnTheEmitterFailsCleanly) {
    expect_clean_failure([](ve::SweepConfig& cfg, std::function<bool()> armed) {
        cfg.record = [armed](const ve::InstanceRecord&) {
            if (armed()) throw HookFailure("record hook");
        };
    });
}

TEST(Pipeline, FailureDropsTheJobsStillQueued) {
    // A sweep queues its whole grid at once; on one worker, the job that
    // fails first is the only one that starts.
    auto sweep = small_sweep();
    sweep.threads = 1;
    int calls = 0;
    sweep.progress = [&calls](long long, long long) {
        ++calls;
        throw HookFailure("progress hook");
    };
    EXPECT_THROW((void)ve::run_sweep(sweep, kHeuristics), HookFailure);
    EXPECT_EQ(calls, 1);
}

TEST(ParallelCampaign, MatchesSeparateSequentialShardRuns) {
    constexpr int kShards = 3;
    const auto sweep = small_sweep();
    const auto expected = ve::run_sweep(sweep, kHeuristics);

    // Reference: each shard in its own sequential run_campaign call, the
    // way N separate processes would execute them.
    TempDir sequential_root;
    for (int k = 1; k <= kShards; ++k) {
        auto cfg = small_campaign(sequential_root.path() /
                                  ve::shard_directory_name(k, kShards));
        cfg.shard_index = k;
        cfg.shard_count = kShards;
        ASSERT_TRUE(ve::run_campaign(cfg).complete);
    }

    TempDir parallel_root;
    auto base = small_campaign(parallel_root.path());
    base.shard_count = kShards;
    const auto outcome = ve::run_parallel_campaign(base);
    EXPECT_TRUE(outcome.complete);
    ASSERT_EQ(outcome.shards.size(), static_cast<std::size_t>(kShards));
    EXPECT_EQ(outcome.jobs_total, 8);
    EXPECT_EQ(outcome.jobs_done, 8);
    EXPECT_EQ(outcome.instances_done, 16);

    std::vector<std::filesystem::path> files;
    for (int k = 1; k <= kShards; ++k) {
        const auto name = ve::shard_directory_name(k, kShards);
        const auto par = shard_bytes(parallel_root.path() / name);
        const auto seq = shard_bytes(sequential_root.path() / name);
        EXPECT_EQ(par.jsonl, seq.jsonl) << name;
        EXPECT_EQ(par.idx, seq.idx) << name;
        EXPECT_EQ(par.manifest, seq.manifest) << name;
        files.push_back(parallel_root.path() / name / "records.jsonl");
    }

    // ...and the parallel shard set still merges bit-identically to the
    // unsharded sweep.
    expect_results_identical(ve::merge_shards(files), expected);
}

TEST(ParallelCampaign, AggregatesProgressAndSerializesRecords) {
    TempDir root;
    std::atomic<long long> last_done{0};
    std::atomic<long long> calls{0};
    std::vector<ve::InstanceRecord> recorded;

    auto base = small_campaign(root.path());
    base.shard_count = 2;
    base.sweep.progress = [&](long long done, long long total) {
        EXPECT_EQ(total, 16);
        EXPECT_GE(done, 1);
        EXPECT_LE(done, total);
        last_done.store(done);
        ++calls;
    };
    // The record hook is serialized across shard emitters, so a plain
    // vector (no locking here) must survive TSan.
    base.sweep.record = [&](const ve::InstanceRecord& rec) {
        recorded.push_back(rec);
    };
    const auto outcome = ve::run_parallel_campaign(base);
    EXPECT_TRUE(outcome.complete);
    EXPECT_EQ(calls.load(), 16); // every instance reports exactly once
    EXPECT_EQ(last_done.load(), 16);

    std::set<std::pair<std::uint64_t, int>> identities;
    for (const auto& rec : recorded)
        EXPECT_TRUE(
            identities.emplace(rec.scenario_ordinal, rec.trial).second);
    EXPECT_EQ(identities.size(), 16u);

    // Re-running the complete parallel campaign resumes to a no-op.
    const auto again = ve::run_parallel_campaign(base);
    EXPECT_TRUE(again.complete);
    EXPECT_EQ(again.instances_done, 16);

    auto invalid = base;
    invalid.shard_count = 0;
    EXPECT_THROW(ve::run_parallel_campaign(invalid), std::invalid_argument);
}

TEST(ParallelCampaign, RunsThroughTheBuilderFacade) {
    TempDir root;
    const auto outcome = va::ExperimentBuilder()
                             .heuristics(kHeuristics)
                             .tasks({3})
                             .ncom({2})
                             .wmin({1, 2})
                             .scenarios_per_cell(1)
                             .trials(2)
                             .processors(4)
                             .iterations(2)
                             .seed(11)
                             .campaign()
                             .directory(root.path())
                             .parallel(2)
                             .checkpoint_every(1)
                             .run_parallel();
    EXPECT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.instances_done, 4);
    std::vector<std::filesystem::path> files;
    for (const auto& dir : ve::find_shard_directories(root.path()))
        files.push_back(dir / "records.jsonl");
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(ve::merge_shards(files).overall.instances(), 4);
}

TEST(IndexSink, RoundTripsAndRejectsAnythingUntrustworthy) {
    TempDir dir;
    const auto path = dir.file("records.idx");
    constexpr std::uint64_t kFingerprint = 0xFEEDFACE12345678ULL;

    {
        ve::IndexSink sink(path, kFingerprint);
        sink.add(0, 0, 100);
        sink.add(0, 1, 180);
        sink.flush(250);
        sink.add(5, 0, 250); // second checkpoint appends incrementally
        sink.flush(333);
    }
    const auto loaded = ve::read_index(path, kFingerprint, 333);
    ASSERT_TRUE(loaded.has_value());
    const std::vector<ve::IndexEntry> expected = {
        {0, 0, 100}, {0, 1, 180}, {5, 0, 250}};
    EXPECT_EQ(*loaded, expected);

    // The one-shot rebuild writer must be byte-identical to the streaming
    // sink — that is what makes "rebuilt" indistinguishable from "original".
    const auto original = read_file(path);
    ve::write_index_file(path, kFingerprint, 333, expected);
    EXPECT_EQ(read_file(path), original);

    // Every invalidity degrades to nullopt (rebuild), never an exception.
    EXPECT_FALSE(ve::read_index(path, kFingerprint ^ 1, 333)); // fingerprint
    EXPECT_FALSE(ve::read_index(path, kFingerprint, 334));     // stale length
    EXPECT_FALSE(ve::read_index(dir.file("absent.idx"), kFingerprint, 333));
    {
        std::ofstream torn(dir.file("torn.idx"), std::ios::binary);
        torn << read_file(path).substr(0, 40); // mid-entry truncation
    }
    EXPECT_FALSE(ve::read_index(dir.file("torn.idx"), kFingerprint, 333));
    {
        // A count whose byte size wraps: 32 + count * 20 == 36 (mod 2^64).
        std::string huge = original.substr(0, 36);
        for (int i = 0; i < 8; ++i)
            huge[24 + i] = static_cast<char>(
                (0x0CCCCCCCCCCCCCCDULL >> (8 * i)) & 0xFF);
        std::ofstream out(dir.file("huge.idx"), std::ios::binary);
        out << huge;
    }
    EXPECT_FALSE(ve::read_index(dir.file("huge.idx"), kFingerprint, 333));
    ve::write_index_file(path, kFingerprint, 333,
                         {{5, 0, 250}, {0, 0, 100}}); // unsorted
    EXPECT_FALSE(ve::read_index(path, kFingerprint, 333));

    EXPECT_EQ(ve::index_path("out/records.jsonl"),
              std::filesystem::path("out/records.idx"));
}

TEST(IndexedQuery, BitEqualsABruteForceScanOnEveryAxis) {
    constexpr int kShards = 2;
    TempDir root;
    auto base = small_campaign(root.path());
    base.shard_count = kShards;
    ASSERT_TRUE(ve::run_parallel_campaign(base).complete);

    std::vector<std::filesystem::path> files;
    for (const auto& dir : ve::find_shard_directories(root.path()))
        files.push_back(dir / "records.jsonl");
    ASSERT_EQ(files.size(), static_cast<std::size_t>(kShards));

    std::vector<ve::QueryFilter> filters(5);
    filters[1].ordinal = {2, 5};               // ordinal window
    filters[2].wmin = {2, 2};                  // one wmin level
    filters[3].tasks = {4, 4};                 // combined axes...
    filters[3].ncom = {2, 2};
    filters[4].wmin = {7, 9};                  // empty result set
    // (filters[0] left open: everything matches)
    for (const auto& f : filters) {
        ve::QueryStats stats;
        const auto indexed = query_lines(files, f, &stats);
        EXPECT_EQ(indexed, scan_matching_lines(files, f));
        EXPECT_EQ(stats.matched, indexed.size());
        EXPECT_EQ(stats.indexes_rebuilt, 0); // fresh campaign: sidecars valid
    }

    // An incomplete shard set cannot answer global-order queries.
    EXPECT_THROW(query_lines({files[0]}, {}), std::runtime_error);
}

TEST(IndexedQuery, RebuildsStaleOrMissingSidecarsTransparently) {
    TempDir root;
    auto base = small_campaign(root.path());
    base.shard_count = 2;
    ASSERT_TRUE(ve::run_parallel_campaign(base).complete);
    std::vector<std::filesystem::path> files;
    for (const auto& dir : ve::find_shard_directories(root.path()))
        files.push_back(dir / "records.jsonl");

    const auto expected = scan_matching_lines(files, {});
    const auto sidecar0 = ve::index_path(files[0]);
    const auto pristine = read_file(sidecar0);

    // Absent sidecar: rebuilt, re-persisted, and byte-identical to the
    // one the campaign emitter wrote.
    std::filesystem::remove(sidecar0);
    ve::QueryStats stats;
    EXPECT_EQ(query_lines(files, {}, &stats), expected);
    EXPECT_EQ(stats.indexes_rebuilt, 1);
    EXPECT_EQ(read_file(sidecar0), pristine);

    // Corrupted sidecar (flipped byte inside the entry region): same story.
    {
        auto bytes = pristine;
        bytes[bytes.size() - 1] ^= 0x40;
        std::ofstream out(sidecar0, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    EXPECT_EQ(query_lines(files, {}, &stats), expected);
    EXPECT_EQ(stats.indexes_rebuilt, 1);
    EXPECT_EQ(read_file(sidecar0), pristine);

    // Once healed, the next query trusts the sidecars again.
    EXPECT_EQ(query_lines(files, {}, &stats), expected);
    EXPECT_EQ(stats.indexes_rebuilt, 0);

    // load_or_rebuild_index reports which path it took.
    bool rebuilt = false;
    (void)ve::load_or_rebuild_index(files[0], &rebuilt);
    EXPECT_FALSE(rebuilt);
    std::filesystem::remove(sidecar0);
    const auto entries = ve::load_or_rebuild_index(files[0], &rebuilt);
    EXPECT_TRUE(rebuilt);
    EXPECT_EQ(entries, ve::build_index_entries(files[0]));
}

TEST(IndexedQuery, StaleSidecarThatPassesItsChecksThrowsNamingTheFile) {
    TempDir root;
    auto base = small_campaign(root.path());
    base.shard_count = 2;
    ASSERT_TRUE(ve::run_parallel_campaign(base).complete);
    std::vector<std::filesystem::path> files;
    for (const auto& dir : ve::find_shard_directories(root.path()))
        files.push_back(dir / "records.jsonl");
    const auto sidecar = ve::index_path(files[0]);

    // Shorten the first record's first makespan by one digit and lengthen
    // the second's by one: the file keeps its length, so the sidecar still
    // validates, but the second record now starts one byte earlier.
    std::vector<std::string> lines;
    {
        std::istringstream in(read_file(files[0]));
        for (std::string line; std::getline(in, line);) lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 3u);
    const auto first_makespan_end = [](const std::string& line) {
        std::size_t pos = line.find("\"makespans\":[") + 13;
        while (std::isdigit(static_cast<unsigned char>(line[pos]))) ++pos;
        return pos;
    };
    const std::size_t second_at = lines[0].size() + 1 + lines[1].size() + 1;
    const std::size_t cut = first_makespan_end(lines[1]) - 1;
    ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(lines[1][cut - 1])));
    lines[1].erase(cut, 1);
    lines[2].insert(first_makespan_end(lines[2]), "7");
    std::string edited;
    for (const auto& line : lines) edited += line + "\n";
    ASSERT_EQ(edited.size(), read_file(files[0]).size());
    write_file(files[0], edited);

    ve::QueryFilter first_job;
    first_job.ordinal = {0, 0};
    const auto query_error = [&](std::vector<std::string>& emitted) {
        try {
            (void)ve::query_shards(files, first_job,
                                   [&](const std::string& line) {
                                       emitted.push_back(line);
                                   });
        } catch (const std::runtime_error& e) {
            return std::string(e.what());
        }
        return std::string();
    };
    std::vector<std::string> emitted;
    const std::string error = query_error(emitted);
    ASSERT_FALSE(error.empty()) << "a fragment was emitted as a record";
    EXPECT_EQ(emitted, std::vector<std::string>{lines[1]});
    EXPECT_NE(error.find("'" + files[0].string() + "'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("at byte " + std::to_string(second_at)),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("'" + sidecar.string() + "'"), std::string::npos)
        << error;

    // Deleting the sidecar, as the message says, heals the shard.
    std::filesystem::remove(sidecar);
    ve::QueryStats stats;
    EXPECT_EQ(query_lines(files, first_job, &stats),
              (std::vector<std::string>{lines[1], lines[2]}));
    EXPECT_EQ(stats.indexes_rebuilt, 1);

    // A line that parses as a different record is caught too: point the
    // second entry at the third record and drop the third's own entry.
    std::ifstream in(files[0]);
    const auto header = ve::read_campaign_header(in, files[0]);
    auto entries = ve::build_index_entries(files[0]);
    ASSERT_GE(entries.size(), 3u);
    const ve::IndexEntry third = entries[2];
    entries[1].offset = third.offset;
    entries.erase(entries.begin() + 2);
    ve::write_index_file(sidecar, header.fingerprint,
                         std::filesystem::file_size(files[0]), entries);
    emitted.clear();
    const std::string mismatch = query_error(emitted);
    EXPECT_EQ(emitted, std::vector<std::string>{lines[1]});
    EXPECT_NE(mismatch.find("holds (ordinal " +
                            std::to_string(third.ordinal) + ", trial " +
                            std::to_string(third.trial) + ")"),
              std::string::npos)
        << mismatch;
}
