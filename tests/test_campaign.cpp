/// Campaign subsystem: shard planner determinism, streaming sinks,
/// checkpoint/resume, and merge.  The two load-bearing guarantees pinned
/// down here are the issue's acceptance criteria: (1) a 2-shard run merged
/// is **bit-identical** to the unsharded run_sweep tables, and (2) a
/// killed-and-resumed campaign produces byte-identical JSONL output with
/// zero duplicate records.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "api/campaign_builder.hpp"
#include "api/experiment_builder.hpp"
#include "exp/campaign.hpp"
#include "exp/index_sink.hpp"
#include "exp/sink.hpp"
#include "exp/sweep.hpp"
#include "support/golden.hpp"

namespace ve = volsched::exp;
namespace va = volsched::api;
using volsched::test::TempDir;
using volsched::test::read_file;
using volsched::test::write_file;

namespace {

/// Small but non-trivial grid: 2x1x2 cells x 2 draws = 8 jobs, 16 instances.
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

/// Bit-identical table comparison: exact ==, not almost-equal.
void expect_tables_identical(const ve::DfbTable& a, const ve::DfbTable& b) {
    ASSERT_EQ(a.num_heuristics(), b.num_heuristics());
    EXPECT_EQ(a.instances(), b.instances());
    for (std::size_t h = 0; h < a.num_heuristics(); ++h) {
        EXPECT_EQ(a.mean_dfb(h), b.mean_dfb(h));
        EXPECT_EQ(a.dfb(h).variance(), b.dfb(h).variance());
        EXPECT_EQ(a.dfb(h).min(), b.dfb(h).min());
        EXPECT_EQ(a.dfb(h).max(), b.dfb(h).max());
        EXPECT_EQ(a.makespan(h).mean(), b.makespan(h).mean());
        EXPECT_EQ(a.wins(h), b.wins(h));
    }
}

void expect_results_identical(const ve::SweepResult& a,
                              const ve::SweepResult& b) {
    EXPECT_EQ(a.heuristics, b.heuristics);
    expect_tables_identical(a.overall, b.overall);
    auto compare_maps = [](const std::map<int, ve::DfbTable>& ma,
                           const std::map<int, ve::DfbTable>& mb) {
        ASSERT_EQ(ma.size(), mb.size());
        for (const auto& [key, table] : ma) {
            const auto it = mb.find(key);
            ASSERT_NE(it, mb.end()) << "missing key " << key;
            expect_tables_identical(table, it->second);
        }
    };
    compare_maps(a.by_wmin, b.by_wmin);
    compare_maps(a.by_tasks, b.by_tasks);
    compare_maps(a.by_ncom, b.by_ncom);
}

} // namespace

TEST(ShardPlanner, PartitionsTheGridDisjointlyAndCompletely) {
    const auto cfg = small_sweep();
    const auto all = ve::grid_jobs(cfg);
    ASSERT_EQ(all.size(), 8u);

    std::set<std::uint64_t> seen;
    for (int k = 1; k <= 3; ++k) {
        const auto mine = ve::shard_jobs(cfg, k, 3);
        // Round-robin keeps shards balanced within one job.
        EXPECT_GE(mine.size(), all.size() / 3);
        EXPECT_LE(mine.size(), all.size() / 3 + 1);
        for (const auto& job : mine) {
            EXPECT_TRUE(seen.insert(job.ordinal).second)
                << "ordinal " << job.ordinal << " in two shards";
            // Seeds come from the global ordinal, not the shard.
            EXPECT_EQ(job.scenario.seed, all[job.ordinal].scenario.seed);
        }
    }
    EXPECT_EQ(seen.size(), all.size());

    EXPECT_THROW(ve::shard_jobs(cfg, 0, 3), std::invalid_argument);
    EXPECT_THROW(ve::shard_jobs(cfg, 4, 3), std::invalid_argument);
    EXPECT_THROW(ve::shard_jobs(cfg, 1, 0), std::invalid_argument);
}

TEST(Sink, JsonlRecordRoundTrips) {
    ve::InstanceRecord rec;
    rec.scenario_ordinal = 12345678901234567890ULL; // full uint64 range
    rec.trial = 7;
    rec.scenario.p = 20;
    rec.scenario.tasks = 40;
    rec.scenario.ncom = 10;
    rec.scenario.wmin = 3;
    rec.scenario.tdata_factor = 1.5;
    rec.scenario.tprog_factor = 5.25;
    rec.scenario.seed = 0xFFFFFFFFFFFFFFFFULL;
    rec.makespans = {123, 456789, 1};

    const auto line = ve::JsonlSink::format_record(rec);
    const auto back = ve::JsonlSink::parse_record(line);
    EXPECT_EQ(back.scenario_ordinal, rec.scenario_ordinal);
    EXPECT_EQ(back.trial, rec.trial);
    EXPECT_EQ(back.scenario.p, rec.scenario.p);
    EXPECT_EQ(back.scenario.tasks, rec.scenario.tasks);
    EXPECT_EQ(back.scenario.ncom, rec.scenario.ncom);
    EXPECT_EQ(back.scenario.wmin, rec.scenario.wmin);
    EXPECT_EQ(back.scenario.tdata_factor, rec.scenario.tdata_factor);
    EXPECT_EQ(back.scenario.tprog_factor, rec.scenario.tprog_factor);
    EXPECT_EQ(back.scenario.seed, rec.scenario.seed);
    EXPECT_EQ(back.makespans, rec.makespans);

    EXPECT_THROW(ve::JsonlSink::parse_record("{\"ordinal\":1"),
                 std::invalid_argument);
    EXPECT_THROW(ve::JsonlSink::parse_record("{\"trial\":0}"),
                 std::invalid_argument);
}

TEST(Sink, CsvFormattersRenderHeaderAndRows) {
    ve::InstanceRecord rec;
    rec.scenario_ordinal = 3;
    rec.trial = 1;
    rec.scenario.p = 4;
    rec.scenario.tasks = 3;
    rec.scenario.ncom = 2;
    rec.scenario.wmin = 1;
    rec.scenario.seed = 42;
    rec.makespans = {100, 120};
    EXPECT_EQ(ve::csv_header_row({"mct", "emct"}) + "\n" +
                  ve::csv_row(rec) + "\n",
              "ordinal,trial,p,tasks,ncom,wmin,tdata_factor,tprog_factor,"
              "seed,mct,emct\n"
              "3,1,4,3,2,1,1,5,42,100,120\n");
}

TEST(Campaign, HeaderLineRoundTrips) {
    TempDir dir;
    auto cfg = small_campaign(dir.path());
    cfg.shard_index = 2;
    cfg.shard_count = 3;
    const auto header =
        ve::parse_campaign_header(ve::campaign_header_line(cfg));
    EXPECT_EQ(header.heuristics, cfg.heuristics);
    EXPECT_EQ(header.shard_index, 2);
    EXPECT_EQ(header.shard_count, 3);
    EXPECT_EQ(header.sweep.tasks_values, cfg.sweep.tasks_values);
    EXPECT_EQ(header.sweep.wmin_values, cfg.sweep.wmin_values);
    EXPECT_EQ(header.sweep.master_seed, cfg.sweep.master_seed);
    EXPECT_EQ(header.fingerprint,
              ve::campaign_fingerprint(cfg.sweep, cfg.heuristics));

    // Any result-determining change moves the fingerprint.
    auto other = cfg.sweep;
    other.master_seed ^= 1;
    EXPECT_NE(ve::campaign_fingerprint(other, cfg.heuristics),
              header.fingerprint);
    EXPECT_NE(ve::campaign_fingerprint(cfg.sweep, {"mct"}),
              header.fingerprint);
}

namespace {

/// `text` with its single occurrence of `from` replaced by `to`.
std::string tampered(std::string text, const std::string& from,
                     const std::string& to) {
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    EXPECT_EQ(text.find(from, at + 1), std::string::npos) << from;
    return text.replace(at, from.size(), to);
}

} // namespace

TEST(Campaign, HeaderRejectsIntegersThatWouldWrap) {
    // 4294967297 = 2^32 + 1 and 4294967299 = 2^32 + 3 wrap to 1 and 3 when
    // narrowed to 32 bits: a header carrying them must not parse as shard 1
    // or as tasks 3 (the fingerprint is recomputed from the parsed values,
    // so it cannot catch the wrap).
    TempDir dir;
    auto cfg = small_campaign(dir.path());
    cfg.shard_index = 1;
    cfg.shard_count = 2;
    const std::string line = ve::campaign_header_line(cfg);
    ASSERT_NO_THROW((void)ve::parse_campaign_header(line));
    EXPECT_THROW((void)ve::parse_campaign_header(
                     tampered(line, "\"shard\":1", "\"shard\":4294967297")),
                 std::invalid_argument);
    EXPECT_THROW((void)ve::parse_campaign_header(tampered(
                     line, "\"tasks\":[3,", "\"tasks\":[4294967299,")),
                 std::invalid_argument);
}

TEST(Sink, JsonlRecordRejectsIntegersThatWouldWrap) {
    ve::InstanceRecord rec;
    rec.trial = 1;
    rec.scenario.p = 4;
    rec.makespans = {10};
    const std::string line = ve::JsonlSink::format_record(rec);
    ASSERT_NO_THROW((void)ve::JsonlSink::parse_record(line));
    EXPECT_THROW((void)ve::JsonlSink::parse_record(
                     tampered(line, "\"trial\":1", "\"trial\":4294967297")),
                 std::invalid_argument);
    EXPECT_THROW((void)ve::JsonlSink::parse_record(
                     tampered(line, "\"p\":4", "\"p\":-4294967292")),
                 std::invalid_argument);
}

TEST(Campaign, ManifestRoundTripsAtomically) {
    TempDir dir;
    EXPECT_FALSE(ve::read_manifest(dir.path()).has_value());
    ve::CampaignManifest m;
    m.fingerprint = 0xDEADBEEFCAFEF00DULL;
    m.shard_index = 2;
    m.shard_count = 4;
    m.jobs_done = 3;
    m.jobs_total = 8;
    m.instances_done = 6;
    m.jsonl_bytes = 1234;
    m.complete = false;
    ve::write_manifest(dir.path(), m);
    const auto back = ve::read_manifest(dir.path());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->fingerprint, m.fingerprint);
    EXPECT_EQ(back->shard_index, 2);
    EXPECT_EQ(back->shard_count, 4);
    EXPECT_EQ(back->jobs_done, 3);
    EXPECT_EQ(back->jobs_total, 8);
    EXPECT_EQ(back->instances_done, 6);
    EXPECT_EQ(back->jsonl_bytes, 1234u);
    EXPECT_FALSE(back->complete);
    // No torn temp file left behind.
    EXPECT_FALSE(std::filesystem::exists(
        ve::manifest_path(dir.path()).string() + ".tmp"));
}

TEST(Campaign, ManifestRejectsValuesThatWouldWrap) {
    // istream >> reads "-1" into an unsigned field as 2^64 - 1; every
    // value must be one whole in-range number.
    TempDir dir;
    for (const char* line :
         {"fingerprint -1", "jsonl -1", "csv -1", "jobs 3 8x"}) {
        {
            std::ofstream out(ve::manifest_path(dir.path()));
            out << "volsched-campaign-manifest 1\n" << line << "\n";
        }
        try {
            (void)ve::read_manifest(dir.path());
            ADD_FAILURE() << "accepted '" << line << "'";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("malformed manifest value"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Campaign, TwoShardsMergedBitMatchUnshardedSweep) {
    const auto sweep = small_sweep();
    const auto expected = ve::run_sweep(sweep, kHeuristics);

    TempDir root;
    std::vector<std::filesystem::path> files;
    for (int k = 1; k <= 2; ++k) {
        auto cfg = small_campaign(root.path() /
                                  ve::shard_directory_name(k, 2));
        cfg.shard_index = k;
        cfg.shard_count = 2;
        const auto outcome = ve::run_campaign(cfg);
        EXPECT_TRUE(outcome.complete);
        EXPECT_EQ(outcome.jobs_done, 4);
        files.push_back(outcome.jsonl_path);
    }

    const auto merged = ve::merge_shards(files);
    expect_results_identical(merged, expected);
}

TEST(Campaign, StreamingMergeScalesToManyShardsAndJobs) {
    // A deliberately larger grid across three shards: the streaming k-way
    // merge walks the grid pulling one record at a time from the owning
    // shard's stream (peak memory O(shards + jobs), never O(records)) and
    // must still bit-match the unsharded sweep, regardless of the order
    // the shard files are presented in.
    ve::SweepConfig sweep;
    sweep.tasks_values = {2, 3};
    sweep.ncom_values = {1, 2};
    sweep.wmin_values = {1, 2, 3};
    sweep.scenarios_per_cell = 5;  // 2*2*3*5 = 60 jobs
    sweep.trials_per_scenario = 2; // 120 records across the shards
    sweep.p = 3;
    sweep.run.iterations = 1;
    sweep.master_seed = 4242;
    sweep.threads = 2;
    const auto expected = ve::run_sweep(sweep, kHeuristics);

    TempDir root;
    std::vector<std::filesystem::path> files;
    for (int k = 1; k <= 3; ++k) {
        ve::CampaignConfig cfg;
        cfg.sweep = sweep;
        cfg.heuristics = kHeuristics;
        cfg.directory = root.path() / ve::shard_directory_name(k, 3);
        cfg.shard_index = k;
        cfg.shard_count = 3;
        cfg.checkpoint_jobs = 7; // deliberately not a divisor of 20
        const auto outcome = ve::run_campaign(cfg);
        ASSERT_TRUE(outcome.complete);
        files.push_back(outcome.jsonl_path);
    }
    std::swap(files[0], files[2]); // merge order must not matter
    const auto merged = ve::merge_shards(files);
    expect_results_identical(merged, expected);
}

TEST(Campaign, SingleShardMatchesSweepAndRerunIsNoOp) {
    const auto sweep = small_sweep();
    const auto expected = ve::run_sweep(sweep, kHeuristics);

    TempDir dir;
    const auto cfg = small_campaign(dir.path());
    const auto outcome = ve::run_campaign(cfg);
    EXPECT_TRUE(outcome.complete);
    expect_results_identical(outcome.tables, expected);

    const auto bytes = read_file(outcome.jsonl_path);
    // Re-running a complete shard recomputes nothing and rewrites nothing.
    const auto again = ve::run_campaign(cfg);
    EXPECT_TRUE(again.complete);
    EXPECT_EQ(read_file(again.jsonl_path), bytes);
    expect_results_identical(again.tables, expected);
}

TEST(Campaign, KilledAndResumedProducesIdenticalOutput) {
    TempDir uninterrupted_dir, interrupted_dir;

    const auto cfg = small_campaign(uninterrupted_dir.path());
    const auto uninterrupted = ve::run_campaign(cfg);
    ASSERT_TRUE(uninterrupted.complete);
    const auto jsonl = read_file(uninterrupted.jsonl_path);

    // First slice: stop after one checkpoint (3 of 8 jobs durable)...
    auto sliced = small_campaign(interrupted_dir.path());
    sliced.stop_after_batches = 1;
    const auto first = ve::run_campaign(sliced);
    EXPECT_FALSE(first.complete);
    EXPECT_EQ(first.jobs_done, 3);

    // ...then simulate a kill mid-write: torn bytes past the checkpoint.
    {
        std::ofstream torn(interrupted_dir.file("records.jsonl"),
                           std::ios::app | std::ios::binary);
        torn << "{\"ordinal\":999,\"trial\":0,\"p\":4,\"tas";
    }

    // Resume to completion: torn tail truncated, zero duplicates.
    sliced.stop_after_batches = 0;
    const auto resumed = ve::run_campaign(sliced);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(read_file(resumed.jsonl_path), jsonl);
    expect_results_identical(resumed.tables, uninterrupted.tables);

    // The record stream parses back with each instance exactly once.
    std::ifstream in(resumed.jsonl_path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(ve::parse_campaign_header(line).fingerprint,
              ve::campaign_fingerprint(sliced.sweep, sliced.heuristics));
    std::set<std::pair<std::uint64_t, int>> identities;
    long long records = 0;
    while (std::getline(in, line)) {
        const auto rec = ve::JsonlSink::parse_record(line);
        EXPECT_TRUE(
            identities.emplace(rec.scenario_ordinal, rec.trial).second);
        ++records;
    }
    EXPECT_EQ(records, resumed.instances_done);
}

TEST(Campaign, ResumesAManifestThatCarriesACsvOffset) {
    // Manifests once carried a `csv <bytes>` line for a records.csv stream
    // (0 when it was off).  A shard checkpointed that way still resumes to
    // the bytes of an uninterrupted run.
    TempDir uninterrupted_dir, interrupted_dir;
    const auto uninterrupted =
        ve::run_campaign(small_campaign(uninterrupted_dir.path()));
    ASSERT_TRUE(uninterrupted.complete);

    auto sliced = small_campaign(interrupted_dir.path());
    sliced.stop_after_batches = 1;
    ASSERT_FALSE(ve::run_campaign(sliced).complete);
    {
        std::ofstream manifest(ve::manifest_path(interrupted_dir.path()),
                               std::ios::app | std::ios::binary);
        manifest << "csv 0\n";
    }
    const auto manifest = ve::read_manifest(interrupted_dir.path());
    ASSERT_TRUE(manifest.has_value());
    EXPECT_EQ(manifest->jobs_done, 3);

    sliced.stop_after_batches = 0;
    const auto resumed = ve::run_campaign(sliced);
    EXPECT_TRUE(resumed.complete);
    for (const char* file : {"records.jsonl", "records.idx", "MANIFEST"})
        EXPECT_EQ(read_file(interrupted_dir.file(file)),
                  read_file(uninterrupted_dir.file(file)))
            << file;
    expect_results_identical(resumed.tables, uninterrupted.tables);
}

TEST(Campaign, ResumeRejectsAMismatchedConfiguration) {
    TempDir dir;
    auto cfg = small_campaign(dir.path());
    cfg.stop_after_batches = 1;
    (void)ve::run_campaign(cfg);

    auto other = cfg;
    other.sweep.master_seed ^= 0xBAD;
    EXPECT_THROW(ve::run_campaign(other), std::runtime_error);

    auto reshard = cfg;
    reshard.shard_index = 1;
    reshard.shard_count = 2;
    EXPECT_THROW(ve::run_campaign(reshard), std::runtime_error);

    // A fresh (non-resuming) run with the new config is fine.
    auto fresh = other;
    fresh.resume = false;
    fresh.stop_after_batches = 0;
    EXPECT_TRUE(ve::run_campaign(fresh).complete);
}

TEST(Campaign, MergeDetectsMissingAndDuplicateShards) {
    TempDir root;
    std::vector<std::filesystem::path> files;
    for (int k = 1; k <= 2; ++k) {
        auto cfg = small_campaign(root.path() /
                                  ve::shard_directory_name(k, 2));
        cfg.shard_index = k;
        cfg.shard_count = 2;
        files.push_back(ve::run_campaign(cfg).jsonl_path);
    }
    EXPECT_THROW(ve::merge_shards({files[0]}), std::runtime_error);
    EXPECT_THROW(ve::merge_shards({files[0], files[0]}),
                 std::runtime_error);
    EXPECT_THROW(ve::merge_shards({}), std::runtime_error);
    EXPECT_NO_THROW(ve::merge_shards(files));

    // An incomplete shard fails the completeness check loudly.
    auto partial = small_campaign(root.path() / "partial");
    partial.shard_index = 1;
    partial.shard_count = 2;
    partial.stop_after_batches = 1;
    const auto outcome = ve::run_campaign(partial);
    EXPECT_THROW(ve::merge_shards({outcome.jsonl_path, files[1]}),
                 std::runtime_error);
}

TEST(Campaign, ResumeAndMergeRejectTamperedRecords) {
    TempDir dir;
    const auto cfg = small_campaign(dir.path());
    const auto outcome = ve::run_campaign(cfg);
    ASSERT_TRUE(outcome.complete);
    const std::string original = read_file(outcome.jsonl_path);
    // Line 0 is the header; lines 1 and 2 are job 0's two trials.
    std::vector<std::string> lines;
    std::istringstream in(original);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_GE(lines.size(), 3u);
    const auto join = [](const std::vector<std::string>& parts) {
        std::string out;
        for (const auto& part : parts) out += part + "\n";
        return out;
    };

    // Both tamperings keep the file's length, so the manifest's byte
    // offset still matches and only the per-job record checks can tell.
    auto reseeded = lines;
    const auto seed_end = reseeded[2].find(',', reseeded[2].find("\"seed\":"));
    char& digit = reseeded[2][seed_end - 1];
    digit = digit == '0' ? '1' : static_cast<char>(digit - 1);
    auto swapped = lines;
    std::swap(swapped[1], swapped[2]);

    const std::pair<std::string, std::string> cases[] = {
        {join(reseeded), "carries seed"}, {join(swapped), "was expected"}};
    const std::pair<std::string, std::function<void()>> readers[] = {
        {"merge: ", [&] { (void)ve::merge_shards({outcome.jsonl_path}); }},
        {"resume: ", [&] { (void)ve::run_campaign(cfg); }}};
    for (const auto& [tampered, reason] : cases) {
        ASSERT_EQ(tampered.size(), original.size());
        write_file(outcome.jsonl_path, tampered);
        for (const auto& [who, read] : readers) {
            std::string message;
            try {
                read();
            } catch (const std::runtime_error& e) {
                message = e.what();
            }
            EXPECT_NE(message.find(who), std::string::npos) << message;
            EXPECT_NE(message.find(reason), std::string::npos) << message;
        }
    }
}

TEST(Campaign, MergeRejectsAShardThatListsNoHeuristics) {
    // A crafted one-job shard: its header lists no heuristics under a
    // fingerprint recomputed to match, and its record carries no
    // makespans, so the per-record count check passes (0 == 0).
    TempDir dir;
    auto cfg = small_campaign(dir.path());
    cfg.heuristics.clear();
    cfg.sweep.tasks_values = {3};
    cfg.sweep.wmin_values = {1};
    cfg.sweep.scenarios_per_cell = 1;
    cfg.sweep.trials_per_scenario = 1;
    const ve::GridJob job = ve::grid_jobs(cfg.sweep).front();
    ve::InstanceRecord rec;
    rec.scenario_ordinal = job.ordinal;
    rec.scenario = job.scenario;
    const auto file = dir.file("records.jsonl");
    write_file(file, ve::campaign_header_line(cfg) + "\n" +
                         ve::JsonlSink::format_record(rec) + "\n");
    EXPECT_THROW((void)ve::merge_shards({file}), std::invalid_argument);
}

TEST(Campaign, ReadersRejectAHeaderWithADegenerateGrid) {
    // Crafted one-job shards: the header's grid is spoiled under a
    // fingerprint recomputed to match, and the one record is the unspoiled
    // grid's job.  Both readers must reject the header and name the field,
    // instead of sizing the grid from it (a negative count threw
    // std::length_error from a reserve) or reading on (p 0 merged, and an
    // empty axis or no trials blamed the records).
    const std::pair<const char*, std::function<void(ve::SweepConfig&)>>
        spoilers[] = {
            {"scenarios_per_cell", [](auto& s) { s.scenarios_per_cell = -1; }},
            {"p (processors)", [](auto& s) { s.p = 0; }},
            {"trials_per_scenario", [](auto& s) { s.trials_per_scenario = 0; }},
            {"trials_per_scenario",
             [](auto& s) { s.trials_per_scenario = -2; }},
            {"tasks axis", [](auto& s) { s.tasks_values.clear(); }},
        };
    for (const auto& [field, spoil] : spoilers) {
        SCOPED_TRACE(field);
        TempDir dir;
        auto cfg = small_campaign(dir.path());
        cfg.sweep.tasks_values = {3};
        cfg.sweep.wmin_values = {1};
        cfg.sweep.scenarios_per_cell = 1;
        cfg.sweep.trials_per_scenario = 1;
        const ve::GridJob job = ve::grid_jobs(cfg.sweep).front();
        ve::InstanceRecord rec;
        rec.scenario_ordinal = job.ordinal;
        rec.scenario = job.scenario;
        rec.makespans = {10, 12};
        spoil(cfg.sweep);
        const auto file = dir.file("records.jsonl");
        write_file(file, ve::campaign_header_line(cfg) + "\n" +
                             ve::JsonlSink::format_record(rec) + "\n");
        // merge (whose ShardStream also serves resume) and the tool's own
        // header reads throw std::invalid_argument naming the file.
        const std::pair<const char*, std::function<void()>> readers[] = {
            {"merge", [&] { (void)ve::merge_shards({file}); }},
            {"read_campaign_header",
             [&] {
                 std::ifstream in(file);
                 (void)ve::read_campaign_header(in, file);
             }}};
        for (const auto& [who, read] : readers) {
            std::string error;
            try {
                read();
            } catch (const std::invalid_argument& e) {
                error = e.what();
            } catch (const std::exception& e) {
                ADD_FAILURE() << who << " threw a non-argument error: "
                              << e.what();
            }
            EXPECT_NE(error.find(field), std::string::npos)
                << who << ": '" << error << "'";
            EXPECT_NE(error.find(file.string()), std::string::npos)
                << who << ": '" << error << "'";
        }
        // query_shards reports an unreadable shard as std::runtime_error,
        // with the header's reason in the message.
        std::string query_error;
        int emitted = 0;
        try {
            (void)ve::query_shards({file}, {},
                                   [&](const std::string&) { ++emitted; });
        } catch (const std::runtime_error& e) {
            query_error = e.what();
        } catch (const std::exception& e) {
            ADD_FAILURE() << "query threw an unexpected error: " << e.what();
        }
        EXPECT_NE(query_error.find(field), std::string::npos)
            << "query: '" << query_error << "'";
        EXPECT_EQ(emitted, 0);
    }
}

TEST(Campaign, DriversRejectDegenerateGridsBeforeAnyJobRuns) {
    const std::pair<const char*, std::function<void(ve::CampaignConfig&)>>
        spoilers[] = {
            {"no heuristics", [](auto& c) { c.heuristics.clear(); }},
            {"no checkpoint policy",
             [](auto& c) { c.sweep.checkpoint_values.clear(); }},
            {"wmin 0", [](auto& c) { c.sweep.wmin_values = {1, 0}; }},
            {"negative scenario count",
             [](auto& c) { c.sweep.scenarios_per_cell = -1; }},
        };
    for (const auto& [what, spoil] : spoilers) {
        SCOPED_TRACE(what);
        TempDir dir;
        auto cfg = small_campaign(dir.path());
        spoil(cfg);
        std::atomic<int> instances{0};
        cfg.sweep.progress = [&](long long, long long) { ++instances; };
        cfg.sweep.record = [&](const ve::InstanceRecord&) { ++instances; };
        EXPECT_THROW((void)ve::run_sweep(cfg.sweep, cfg.heuristics),
                     std::invalid_argument);
        EXPECT_THROW((void)ve::run_campaign(cfg), std::invalid_argument);
        cfg.shard_count = 2;
        EXPECT_THROW((void)ve::run_parallel_campaign(cfg),
                     std::invalid_argument);
        EXPECT_EQ(instances.load(), 0);
        EXPECT_FALSE(std::filesystem::exists(dir.file("records.jsonl")));
        EXPECT_TRUE(ve::find_shard_directories(dir.path()).empty());
    }
}

TEST(Campaign, FindShardDirectoriesFiltersAndSorts) {
    TempDir root;
    std::filesystem::create_directories(root.path() / "shard-2-of-2");
    std::filesystem::create_directories(root.path() / "shard-1-of-2");
    std::filesystem::create_directories(root.path() / "unrelated");
    { std::ofstream(root.path() / "shard-1-of-2" / "records.jsonl") << ""; }
    { std::ofstream(root.path() / "shard-2-of-2" / "records.jsonl") << ""; }
    const auto dirs = ve::find_shard_directories(root.path());
    ASSERT_EQ(dirs.size(), 2u);
    EXPECT_EQ(dirs[0].filename().string(), "shard-1-of-2");
    EXPECT_EQ(dirs[1].filename().string(), "shard-2-of-2");
    EXPECT_TRUE(
        ve::find_shard_directories(root.path() / "nowhere").empty());
}

TEST(CampaignBuilder, ComposesAndResolvesTheShardDirectory) {
    TempDir root;
    auto builder = va::ExperimentBuilder()
                       .heuristics(kHeuristics)
                       .tasks({3})
                       .ncom({2})
                       .wmin({1})
                       .scenarios_per_cell(1)
                       .trials(1)
                       .processors(4)
                       .iterations(2)
                       .seed(7)
                       .campaign()
                       .directory(root.path())
                       .shard(2, 3)
                       .checkpoint_every(5);
    const auto cfg = builder.config();
    EXPECT_EQ(cfg.directory,
              root.path() / ve::shard_directory_name(2, 3));
    EXPECT_EQ(cfg.shard_index, 2);
    EXPECT_EQ(cfg.shard_count, 3);
    EXPECT_EQ(cfg.checkpoint_jobs, 5);

    EXPECT_THROW(va::ExperimentBuilder()
                     .heuristics(kHeuristics)
                     .campaign()
                     .config(), // no directory
                 std::invalid_argument);
    EXPECT_THROW(builder.shard(4, 3).config(), std::invalid_argument);
}

TEST(CampaignBuilder, HeuristicSetSelectsPresetsAndSpecLists) {
    va::ExperimentBuilder b;
    b.heuristic_set("greedy");
    EXPECT_EQ(b.heuristic_specs().size(), 8u);
    b.heuristic_set("all");
    EXPECT_EQ(b.heuristic_specs().size(), 17u);
    b.heuristic_set("mct, emct");
    EXPECT_EQ(b.heuristic_specs(),
              (std::vector<std::string>{"mct", "emct"}));
    // Commas inside option parentheses do not split the spec.
    b.heuristic_set("thr(percent=50):emct,mct");
    EXPECT_EQ(b.heuristic_specs(),
              (std::vector<std::string>{"thr(percent=50):emct", "mct"}));
    EXPECT_THROW(b.heuristic_set(""), std::invalid_argument);
    EXPECT_THROW(b.heuristic_set("mtc"), std::invalid_argument);
}

TEST(CampaignBuilder, RunsEndToEndThroughTheFacade) {
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
                             .checkpoint_every(1)
                             .run();
    EXPECT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.instances_done, 4);
    const auto merged = ve::merge_shards({outcome.jsonl_path});
    EXPECT_EQ(merged.overall.instances(), 4);
}
