#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exp/index_sink.hpp"
#include "exp/status.hpp"
#include "obs/registry.hpp"
#include "obs/stopwatch.hpp"
#include "util/atomic_io.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace volsched::exp {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("campaign: " + what);
}

/// Reads one whole-token manifest number.  util::parse_whole, unlike
/// istream >>, neither wraps "-1" into an unsigned field nor stops
/// half-way through "8x".
template <typename T>
bool read_number(std::istream& in, T& out) {
    std::string token;
    return in >> token && util::parse_whole(token, out);
}

/// Minimum wall-clock between steady-state heartbeat writes (checkpoint
/// and completion writes are unconditional).
constexpr std::int64_t kHeartbeatIntervalMs = 500;

const char* plan_class_name(sim::SchedulerClass c) {
    switch (c) {
    case sim::SchedulerClass::Dynamic: return "dynamic";
    case sim::SchedulerClass::Passive: return "passive";
    case sim::SchedulerClass::Proactive: return "proactive";
    }
    fail("unknown scheduler class");
}

sim::SchedulerClass plan_class_from(const std::string& name) {
    if (name == "dynamic") return sim::SchedulerClass::Dynamic;
    if (name == "passive") return sim::SchedulerClass::Passive;
    if (name == "proactive") return sim::SchedulerClass::Proactive;
    throw std::invalid_argument("campaign: unknown plan class '" + name + "'");
}

/// FNV-1a 64-bit over a canonical serialization; stable across platforms.
std::uint64_t fnv1a(std::string_view text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string join_ints(const std::vector<int>& xs) {
    std::string out;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i) out += ',';
        out += std::to_string(xs[i]);
    }
    return out;
}

/// Whether the sweep actually exercises the checkpoint layer.  The default
/// single-"none" axis is the classic grid: it is excluded from the
/// fingerprint and the header so pre-checkpoint campaign files stay valid
/// (and resumable) under the current code.
bool has_checkpoint_axis(const SweepConfig& cfg) {
    return cfg.checkpoint_values.size() != 1 ||
           cfg.checkpoint_values.front() != "none";
}

/// The canonical result-determining description (no shard, no threads).
std::string canonical_description(const SweepConfig& cfg,
                                  const std::vector<std::string>& heuristics) {
    std::string s = "volsched-campaign v1;tasks=" + join_ints(cfg.tasks_values);
    s += ";ncom=" + join_ints(cfg.ncom_values);
    s += ";wmin=" + join_ints(cfg.wmin_values);
    s += ";scenarios=" + std::to_string(cfg.scenarios_per_cell);
    s += ";trials=" + std::to_string(cfg.trials_per_scenario);
    s += ";p=" + std::to_string(cfg.p);
    s += ";tdata=" + util::json::number(cfg.tdata_factor);
    s += ";tprog=" + util::json::number(cfg.tprog_factor);
    s += ";seed=" + std::to_string(cfg.master_seed);
    s += ";iterations=" + std::to_string(cfg.run.iterations);
    s += ";replica_cap=" + std::to_string(cfg.run.replica_cap);
    s += ";max_slots=" + std::to_string(cfg.run.max_slots);
    s += ";plan_class=" + std::string(plan_class_name(cfg.run.plan_class));
    if (has_checkpoint_axis(cfg)) {
        s += ";checkpoints=";
        for (std::size_t c = 0; c < cfg.checkpoint_values.size(); ++c) {
            if (c) s += ',';
            s += cfg.checkpoint_values[c];
        }
        s += ";checkpoint_cost=" + std::to_string(cfg.run.checkpoint_cost);
    }
    s += ";heuristics=";
    for (std::size_t h = 0; h < heuristics.size(); ++h) {
        if (h) s += ',';
        s += heuristics[h];
    }
    return s;
}

std::vector<int> parse_int_array(const util::json::Value& v) {
    std::vector<int> out;
    for (const auto& item : v.items())
        out.push_back(item.as_int());
    return out;
}

std::string json_int_array(const std::vector<int>& xs) {
    return "[" + join_ints(xs) + "]";
}

/// Streams one shard's records straight off its JSONL file, one line at a
/// time — O(1) record memory for both the k-way merge and the resume
/// replay.  The header is parsed (and fingerprint-verified) on open; byte
/// offsets of the record lines are tracked for index rebuilding.
class ShardStream {
public:
    explicit ShardStream(const std::filesystem::path& file)
        : path_(file), in_(file), header_(read_campaign_header(in_, file)),
          offset_(static_cast<std::uint64_t>(in_.tellg())) {}

    [[nodiscard]] const CampaignHeader& header() const noexcept {
        return header_;
    }
    [[nodiscard]] const std::filesystem::path& path() const noexcept {
        return path_;
    }
    /// Byte offset of the line the most recent next() returned.
    [[nodiscard]] std::uint64_t record_offset() const noexcept {
        return record_offset_;
    }

    /// Next record, or std::nullopt at end of stream.
    std::optional<InstanceRecord> next() {
        std::string line;
        while (std::getline(in_, line)) {
            const std::uint64_t at = offset_;
            offset_ += line.size() + 1;
            if (line.empty()) continue;
            try {
                InstanceRecord rec = JsonlSink::parse_record(line);
                record_offset_ = at;
                return rec;
            } catch (const std::invalid_argument& e) {
                fail("'" + path_.string() + "' holds a malformed record (" +
                     e.what() +
                     "); was the shard killed without a checkpoint? resume "
                     "it to self-heal, or delete the torn tail");
            }
        }
        return std::nullopt;
    }

private:
    std::filesystem::path path_;
    std::ifstream in_;
    CampaignHeader header_;
    std::uint64_t offset_ = 0;
    std::uint64_t record_offset_ = 0;
};

/// The caller's words in the per-job record checks: every message starts
/// with `who`, a stream that runs out early is explained by
/// `ran_out_hint`, and records left after the last job by `trailing`.
struct RecordCheck {
    const char* who;
    const char* ran_out_hint;
    const char* trailing;
};

constexpr RecordCheck kResumeCheck{
    "resume", "fewer records than the manifest checkpointed",
    "more records than the manifest checkpointed"};
constexpr RecordCheck kMergeCheck{
    "merge", "incomplete shard?",
    "records past the end of its shard of the grid (duplicate shard or "
    "foreign file?)"};

/// Pulls grid job `job`'s `trials` records off `stream` and reduces them
/// into a per-job table, failing unless they arrive in (ordinal, trial)
/// order with the grid's seed, checkpoint policy and makespan count.  Each
/// record's byte offset goes to `index` when one is given.
DfbTable read_job_records(ShardStream& stream, const GridJob& job,
                          int trials, std::size_t num_heuristics,
                          const RecordCheck& check, IndexSink* index) {
    // The prefixes of the messages, built only when a check fails.
    const auto in_file = [&] {
        return std::string(check.who) + ": '" + stream.path().string() + "'";
    };
    const auto ordinal = [&] { return std::to_string(job.ordinal); };
    const auto at_ordinal = [&] {
        return std::string(check.who) + ": ordinal " + ordinal();
    };
    DfbTable local(num_heuristics);
    for (int t = 0; t < trials; ++t) {
        auto rec = stream.next();
        if (!rec)
            fail(in_file() + " ran out of records at scenario ordinal " +
                 ordinal() + " trial " + std::to_string(t) + " (" +
                 check.ran_out_hint + ")");
        if (rec->scenario_ordinal != job.ordinal || rec->trial != t)
            fail(in_file() + " yields (ordinal " +
                 std::to_string(rec->scenario_ordinal) + ", trial " +
                 std::to_string(rec->trial) + ") where (ordinal " +
                 ordinal() + ", trial " + std::to_string(t) +
                 ") was expected (duplicate, missing, or out-of-order "
                 "record?)");
        if (rec->scenario.seed != job.scenario.seed)
            fail(at_ordinal() + " carries seed " +
                 std::to_string(rec->scenario.seed) +
                 " but the grid expects " + std::to_string(job.scenario.seed) +
                 " (records from a different campaign?)");
        if (rec->scenario.checkpoint != job.scenario.checkpoint)
            fail(at_ordinal() + " carries checkpoint policy '" +
                 rec->scenario.checkpoint + "' but the grid expects '" +
                 job.scenario.checkpoint + "'");
        if (rec->makespans.size() != num_heuristics)
            fail(at_ordinal() + " has " +
                 std::to_string(rec->makespans.size()) +
                 " makespans, expected " + std::to_string(num_heuristics));
        if (index)
            index->add(rec->scenario_ordinal, rec->trial,
                       stream.record_offset());
        local.add_instance(rec->makespans);
    }
    return local;
}

/// Fails when `stream` still holds records after its last job.
void expect_stream_end(ShardStream& stream, const RecordCheck& check) {
    if (stream.next())
        fail(std::string(check.who) + ": '" + stream.path().string() +
             "' holds " + check.trailing);
}

/// The resume replay: walks the already-checkpointed prefix of the shard's
/// grid jobs, pulling each job's trials off the (already truncated) JSONL
/// stream one line at a time and reducing through the canonical
/// merge_job_tables order — never holding more than one record in memory.
/// Every record's byte offset feeds the fresh index sidecar as it passes.
void replay_shard_stream(SweepResult& tables, IndexSink& index,
                         const std::filesystem::path& jsonl_file,
                         std::uint64_t fingerprint,
                         const std::vector<GridJob>& jobs,
                         long long jobs_done, int trials) {
    ShardStream stream(jsonl_file);
    if (stream.header().fingerprint != fingerprint)
        fail("records.jsonl header disagrees with the manifest");
    for (long long j = 0; j < jobs_done; ++j) {
        const GridJob& job = jobs[static_cast<std::size_t>(j)];
        merge_job_tables(tables, job.scenario,
                         read_job_records(stream, job, trials,
                                          tables.heuristics.size(),
                                          kResumeCheck, &index));
    }
    expect_stream_end(stream, kResumeCheck);
}

} // namespace

// ---------------------------------------------------------------------------
// Shard planner
// ---------------------------------------------------------------------------

std::vector<GridJob> shard_jobs(const SweepConfig& cfg, int shard_index,
                                int shard_count) {
    if (shard_count < 1)
        throw std::invalid_argument("campaign: shard count must be >= 1");
    if (shard_index < 1 || shard_index > shard_count)
        throw std::invalid_argument(
            "campaign: shard index " + std::to_string(shard_index) +
            " out of range 1.." + std::to_string(shard_count));
    std::vector<GridJob> all = grid_jobs(cfg);
    if (shard_count == 1) return all;
    std::vector<GridJob> mine;
    mine.reserve(all.size() / static_cast<std::size_t>(shard_count) + 1);
    for (const GridJob& job : all)
        if (job.ordinal % static_cast<std::uint64_t>(shard_count) ==
            static_cast<std::uint64_t>(shard_index - 1))
            mine.push_back(job);
    return mine;
}

std::uint64_t
campaign_fingerprint(const SweepConfig& cfg,
                     const std::vector<std::string>& heuristics) {
    return fnv1a(canonical_description(cfg, heuristics));
}

// ---------------------------------------------------------------------------
// JSONL header
// ---------------------------------------------------------------------------

std::string campaign_header_line(const CampaignConfig& cfg) {
    const SweepConfig& sw = cfg.sweep;
    std::string out = "{\"campaign\":{\"version\":1,\"fingerprint\":";
    out += std::to_string(campaign_fingerprint(sw, cfg.heuristics));
    out += ",\"shard\":";
    out += std::to_string(cfg.shard_index);
    out += ",\"shards\":";
    out += std::to_string(cfg.shard_count);
    out += ",\"heuristics\":[";
    for (std::size_t h = 0; h < cfg.heuristics.size(); ++h) {
        if (h) out += ',';
        out += '"' + util::json::escape(cfg.heuristics[h]) + '"';
    }
    out += "],\"tasks\":" + json_int_array(sw.tasks_values);
    out += ",\"ncom\":" + json_int_array(sw.ncom_values);
    out += ",\"wmin\":" + json_int_array(sw.wmin_values);
    out += ",\"scenarios_per_cell\":" + std::to_string(sw.scenarios_per_cell);
    out += ",\"trials_per_scenario\":" +
           std::to_string(sw.trials_per_scenario);
    out += ",\"p\":" + std::to_string(sw.p);
    out += ",\"tdata_factor\":" + util::json::number(sw.tdata_factor);
    out += ",\"tprog_factor\":" + util::json::number(sw.tprog_factor);
    out += ",\"master_seed\":" + std::to_string(sw.master_seed);
    out += ",\"iterations\":" + std::to_string(sw.run.iterations);
    out += ",\"replica_cap\":" + std::to_string(sw.run.replica_cap);
    out += ",\"max_slots\":" + std::to_string(sw.run.max_slots);
    out += ",\"plan_class\":\"";
    out += plan_class_name(sw.run.plan_class);
    out += '"';
    if (has_checkpoint_axis(sw)) {
        out += ",\"checkpoints\":[";
        for (std::size_t c = 0; c < sw.checkpoint_values.size(); ++c) {
            if (c) out += ',';
            out += '"' + util::json::escape(sw.checkpoint_values[c]) + '"';
        }
        out += "],\"checkpoint_cost\":" +
               std::to_string(sw.run.checkpoint_cost);
    }
    out += "}}";
    return out;
}

CampaignHeader parse_campaign_header(const std::string& line) {
    const auto doc = util::json::Value::parse(line);
    const auto& c = doc.at("campaign");
    if (c.at("version").as_i64() != 1)
        throw std::invalid_argument("campaign: unsupported header version");
    CampaignHeader header;
    header.fingerprint = c.at("fingerprint").as_u64();
    header.shard_index = c.at("shard").as_int();
    header.shard_count = c.at("shards").as_int();
    // The fingerprint deliberately excludes the shard fields, so they need
    // their own validation here — for merge, status, and resume at once.
    if (header.shard_count < 1 || header.shard_index < 1 ||
        header.shard_index > header.shard_count)
        throw std::invalid_argument(
            "campaign: header names shard " +
            std::to_string(header.shard_index) + " of " +
            std::to_string(header.shard_count) + ", which is out of range");
    for (const auto& h : c.at("heuristics").items())
        header.heuristics.push_back(h.as_string());
    if (header.heuristics.empty())
        throw std::invalid_argument("campaign: header lists no heuristics");
    SweepConfig& sw = header.sweep;
    sw.tasks_values = parse_int_array(c.at("tasks"));
    sw.ncom_values = parse_int_array(c.at("ncom"));
    sw.wmin_values = parse_int_array(c.at("wmin"));
    sw.scenarios_per_cell = c.at("scenarios_per_cell").as_int();
    sw.trials_per_scenario = c.at("trials_per_scenario").as_int();
    sw.p = c.at("p").as_int();
    sw.tdata_factor = c.at("tdata_factor").as_double();
    sw.tprog_factor = c.at("tprog_factor").as_double();
    sw.master_seed = c.at("master_seed").as_u64();
    sw.run.iterations = c.at("iterations").as_int();
    sw.run.replica_cap = c.at("replica_cap").as_int();
    sw.run.max_slots = c.at("max_slots").as_i64();
    sw.run.plan_class = plan_class_from(c.at("plan_class").as_string());
    // Optional (absent in classic, checkpoint-free campaign files).
    if (const auto* ckpts = c.find("checkpoints")) {
        sw.checkpoint_values.clear();
        for (const auto& v : ckpts->items())
            sw.checkpoint_values.push_back(v.as_string());
        sw.run.checkpoint_cost = c.at("checkpoint_cost").as_int();
    }
    if (campaign_fingerprint(sw, header.heuristics) != header.fingerprint)
        throw std::invalid_argument(
            "campaign: header fingerprint does not match its configuration "
            "(tampered or version-skewed shard file)");
    // A fingerprint recomputed by hand matches any grid, so the grid's
    // shape is checked too, before a reader sizes anything from it.
    try {
        validate_grid(sw);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("campaign: header: ") +
                                    e.what());
    }
    return header;
}

CampaignHeader read_campaign_header(std::istream& in,
                                    const std::filesystem::path& jsonl_file) {
    if (!in) fail("cannot open '" + jsonl_file.string() + "'");
    std::string line;
    if (!std::getline(in, line))
        fail("'" + jsonl_file.string() + "' is empty");
    try {
        return parse_campaign_header(line);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("campaign: '" + jsonl_file.string() +
                                    "': " + e.what());
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

std::filesystem::path manifest_path(const std::filesystem::path& dir) {
    return dir / "MANIFEST";
}

void write_manifest(const std::filesystem::path& dir,
                    const CampaignManifest& m) {
    std::string out = "volsched-campaign-manifest 1\n";
    out += "fingerprint " + std::to_string(m.fingerprint) + "\n";
    out += "shard " + std::to_string(m.shard_index) + " " +
           std::to_string(m.shard_count) + "\n";
    out += "jobs " + std::to_string(m.jobs_done) + " " +
           std::to_string(m.jobs_total) + "\n";
    out += "instances " + std::to_string(m.instances_done) + "\n";
    out += "jsonl " + std::to_string(m.jsonl_bytes) + "\n";
    out += "complete " + std::string(m.complete ? "1" : "0") + "\n";
    util::write_file_atomic(manifest_path(dir), out);
}

std::optional<CampaignManifest>
read_manifest(const std::filesystem::path& dir) {
    const auto path = manifest_path(dir);
    if (!std::filesystem::exists(path)) return std::nullopt;
    std::istringstream in(util::read_text_file(path));
    std::string magic;
    int version = 0;
    in >> magic >> version;
    if (magic != "volsched-campaign-manifest" || version != 1)
        fail("malformed manifest '" + path.string() + "'");
    CampaignManifest m;
    std::string key;
    while (in >> key) {
        bool ok = false;
        if (key == "fingerprint") {
            ok = read_number(in, m.fingerprint);
        } else if (key == "shard") {
            ok = read_number(in, m.shard_index) &&
                 read_number(in, m.shard_count);
        } else if (key == "jobs") {
            ok = read_number(in, m.jobs_done) && read_number(in, m.jobs_total);
        } else if (key == "instances") {
            ok = read_number(in, m.instances_done);
        } else if (key == "jsonl") {
            ok = read_number(in, m.jsonl_bytes);
        } else if (key == "csv") {
            // The records.csv offset that manifests carried while campaigns
            // could stream CSV: still one whole number, no longer used.
            std::uint64_t ignored = 0;
            ok = read_number(in, ignored);
        } else if (key == "complete") {
            int c = 0;
            ok = read_number(in, c);
            m.complete = c != 0;
        } else {
            fail("unknown manifest key '" + key + "' in '" + path.string() +
                 "'");
        }
        if (!ok)
            fail("malformed manifest value for '" + key + "' in '" +
                 path.string() + "'");
    }
    return m;
}

// ---------------------------------------------------------------------------
// Grid drivers: the shared job code and the completion pipeline
// ---------------------------------------------------------------------------

namespace {

/// One grid job's results: its records, trials in order, and the DfbTable
/// they reduce to.
struct JobOutcome {
    DfbTable local;
    std::vector<InstanceRecord> records;
};

/// The job code both drivers share, called on pool workers: realizes a
/// job's scenario and races the heuristics on each of its trials.  A trial
/// seeds from (master seed, seed ordinal, trial), never from the thread or
/// shard that runs it, and reports to the progress hook when it finishes.
struct JobRunner {
    const SweepConfig& cfg;
    const std::vector<std::string>& heuristics;
    long long instances_total;
    std::atomic<long long> instances_done;

    JobOutcome operator()(const GridJob& job) {
        JobOutcome out{DfbTable(heuristics.size()), {}};
        const RealizedScenario rs = realize(job.scenario);
        out.records.reserve(static_cast<std::size_t>(cfg.trials_per_scenario));
        for (int trial = 0; trial < cfg.trials_per_scenario; ++trial) {
            const std::uint64_t trial_seed =
                util::mix_seed(cfg.master_seed, 0x54524cULL, job.seed_ordinal,
                               static_cast<std::uint64_t>(trial));
            auto outcome = run_instance(rs, job.scenario.tasks, heuristics,
                                        cfg.run, trial_seed,
                                        job.scenario.checkpoint);
            out.local.add_instance(outcome.makespans);
            out.records.push_back({job.ordinal, trial, job.scenario,
                                   std::move(outcome.makespans)});
            const long long done = ++instances_done;
            if (cfg.progress) cfg.progress(done, instances_total);
        }
        return out;
    }
};

/// A completion pipeline's occupancy, as the status heartbeat reads it.
struct Occupancy {
    std::size_t window = 0;
    std::atomic<long long> queued{0};  ///< finished, not yet taken to emit
    std::atomic<long long> lagging{0}; ///< submitted, not yet taken to emit
};

/// Jobs each pool worker may run ahead of the emitter.  At 2, Table 2 at
/// 2 scenarios x 2 trials on 4 threads ran about x1.15 slower than with
/// its whole grid queued: the next cell's cheap jobs filled the window
/// behind an expensive job at its head, and the other workers idled
/// (BENCH_2026-10-19d.jsonl; BENCH_2026-10-19h.jsonl for the campaign).
constexpr std::size_t kRunAheadPerWorker = 8;

/// The completion pipeline, the one run-ahead loop of both grid drivers:
/// compute(j) for j in [first, end) on `pool`, emit(j, outcome) on the
/// calling thread in increasing j, at most max(min_window,
/// kRunAheadPerWorker x pool size) jobs ahead — so compute overlaps the
/// emitter's I/O and record memory stays bounded; a straggler idles
/// workers once the window fills behind it.  The first exception either
/// side throws stops submission, drops the jobs still queued, and is
/// rethrown once no job runs.  Occupancy goes to `occ` and, as deltas
/// (shards share them), to the registry's campaign.* gauges; every exit
/// path takes this run's share back out.
void run_pipeline(util::ThreadPool& pool, std::size_t min_window,
                  std::size_t first, std::size_t end, Occupancy& occ,
                  const std::function<JobOutcome(std::size_t)>& compute,
                  const std::function<void(std::size_t, JobOutcome&)>& emit) {
    obs::Registry* const reg = obs::Registry::active();
    obs::Gauge* const g_queue =
        reg ? &reg->gauge("campaign.queue_depth") : nullptr;
    obs::Gauge* const g_lag =
        reg ? &reg->gauge("campaign.emitter_lag") : nullptr;
    obs::Gauge* const g_window =
        reg ? &reg->gauge("campaign.window") : nullptr;
    const auto occupy = [&](long long queued, long long lagging) {
        occ.queued += queued;
        occ.lagging += lagging;
        if (g_queue) g_queue->add(queued);
        if (g_lag) g_lag->add(lagging);
    };
    occ.window = std::max(min_window, kRunAheadPerWorker * pool.size());
    if (g_window) g_window->add(static_cast<long long>(occ.window));

    std::mutex mu;
    std::condition_variable cv;
    std::map<std::size_t, JobOutcome> ready;
    std::exception_ptr first_error;
    std::size_t in_flight = 0;
    std::size_t next_submit = first;

    // Caller holds `mu` and has seen no error.  Tasks capture this stack
    // frame by reference, which is why every exit path below drains
    // `in_flight` to zero before unwinding.
    auto submit_upto_window = [&](std::size_t emitted) {
        while (next_submit < end && next_submit - emitted < occ.window) {
            const std::size_t j = next_submit++;
            ++in_flight;
            occupy(0, 1);
            pool.submit([&, j] {
                // notify_all happens *under* `mu`: the emitter destroys `cv`
                // (by unwinding this stack frame) the moment it observes
                // in_flight == 0, and it cannot observe that until the lock
                // is released — after the notify call has fully returned.
                std::unique_lock lock(mu);
                if (!first_error) { // else the job is dropped unrun
                    lock.unlock();
                    try {
                        JobOutcome out = compute(j);
                        lock.lock();
                        ready.emplace(j, std::move(out));
                        occupy(1, 0);
                    } catch (...) {
                        if (!lock.owns_lock()) lock.lock();
                        if (!first_error)
                            first_error = std::current_exception();
                    }
                }
                --in_flight;
                cv.notify_all();
            });
        }
    };

    try {
        {
            std::lock_guard lock(mu);
            submit_upto_window(first);
        }
        for (std::size_t j = first; j < end; ++j) {
            std::optional<JobOutcome> out;
            {
                std::unique_lock lock(mu);
                cv.wait(lock, [&] { return first_error || ready.contains(j); });
                if (first_error) break;
                out.emplace(std::move(ready.extract(j).mapped()));
                occupy(-1, -1);
                submit_upto_window(j + 1);
            }
            emit(j, *out);
        }
    } catch (...) {
        std::lock_guard lock(mu);
        if (!first_error) first_error = std::current_exception();
    }
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return in_flight == 0; });
    // What a failure left submitted or finished is never emitted.
    occupy(-occ.queued, -occ.lagging);
    if (g_window) g_window->add(-static_cast<long long>(occ.window));
    if (first_error) std::rethrow_exception(first_error);
}

/// Runs (or resumes) one shard on `pool`: run_campaign's own pool, or the
/// one run_parallel_campaign shares between its shard drivers.
CampaignResult run_shard(const CampaignConfig& cfg, util::ThreadPool& pool) {
    if (cfg.directory.empty())
        throw std::invalid_argument("campaign: no output directory");
    if (cfg.checkpoint_jobs < 1)
        throw std::invalid_argument("campaign: checkpoint_jobs must be >= 1");
    validate_sweep(cfg.sweep, cfg.heuristics);

    const std::vector<GridJob> jobs =
        shard_jobs(cfg.sweep, cfg.shard_index, cfg.shard_count);
    const std::uint64_t fingerprint =
        campaign_fingerprint(cfg.sweep, cfg.heuristics);
    const int trials = cfg.sweep.trials_per_scenario;

    std::filesystem::create_directories(cfg.directory);
    const auto jsonl_file = cfg.directory / "records.jsonl";

    std::optional<CampaignManifest> previous;
    if (cfg.resume) previous = read_manifest(cfg.directory);
    if (!previous) {
        // Fresh start — either requested, or no durable checkpoint exists
        // (e.g. a previous run was killed before its first manifest, whose
        // un-checkpointed records must not survive).
        std::filesystem::remove(manifest_path(cfg.directory));
        std::filesystem::remove(jsonl_file);
        std::filesystem::remove(index_path(jsonl_file));
    }

    if (previous) {
        if (previous->fingerprint != fingerprint)
            fail("manifest in '" + cfg.directory.string() +
                 "' belongs to a different campaign configuration; use a "
                 "fresh directory or disable resume");
        if (previous->shard_index != cfg.shard_index ||
            previous->shard_count != cfg.shard_count)
            fail("manifest in '" + cfg.directory.string() + "' is shard " +
                 std::to_string(previous->shard_index) + "/" +
                 std::to_string(previous->shard_count) +
                 ", not the requested " + std::to_string(cfg.shard_index) +
                 "/" + std::to_string(cfg.shard_count));
        if (previous->jobs_total != static_cast<long long>(jobs.size()))
            fail("manifest job count disagrees with the grid");
        if (previous->jobs_done < 0 ||
            previous->jobs_done > previous->jobs_total)
            fail("manifest checkpoints " +
                 std::to_string(previous->jobs_done) + " of " +
                 std::to_string(previous->jobs_total) +
                 " jobs, which is impossible (corrupted manifest?)");
    }

    JsonlSink jsonl(jsonl_file, campaign_header_line(cfg));
    // The index sidecar is derived data: started fresh on every run and
    // refilled from the replay on resume, so it never participates in the
    // truncate-to-manifest contract.
    IndexSink index(index_path(jsonl_file), fingerprint);

    CampaignResult result(cfg.heuristics);
    result.jobs_total = static_cast<long long>(jobs.size());
    result.jsonl_path = jsonl_file;

    long long jobs_done = 0;
    if (previous) {
        // The resume contract: truncate the JSONL stream to the last
        // durable checkpoint, then rebuild the shard-local tables by
        // replaying the surviving records — streamed one line at a time —
        // through the canonical reduction.
        jsonl.resume_at(previous->jsonl_bytes);
        jobs_done = previous->jobs_done;
        replay_shard_stream(result.tables, index, jsonl_file, fingerprint,
                            jobs, jobs_done, trials);
        index.flush(previous->jsonl_bytes);
    }

    CampaignManifest manifest;
    manifest.fingerprint = fingerprint;
    manifest.shard_index = cfg.shard_index;
    manifest.shard_count = cfg.shard_count;
    manifest.jobs_total = static_cast<long long>(jobs.size());

    const long long jobs_total = static_cast<long long>(jobs.size());
    JobRunner run_job{cfg.sweep, cfg.heuristics, jobs_total * trials,
                      jobs_done * trials};
    Occupancy occupancy;

    // Observability (all observer-only; outputs are byte-identical with or
    // without it): stage wall-time histograms into the process registry
    // when a driver installed one, and the per-shard status.json heartbeat,
    // which also reports the pipeline's occupancy.
    obs::Registry* const reg = obs::Registry::active();
    obs::Histogram* const h_run =
        reg ? &reg->histogram("campaign.run_us") : nullptr;
    obs::Histogram* const h_serialize =
        reg ? &reg->histogram("campaign.serialize_us") : nullptr;
    obs::Histogram* const h_fsync =
        reg ? &reg->histogram("campaign.fsync_us") : nullptr;
    const bool timed = cfg.heartbeat || reg != nullptr;
    obs::Histogram stage_run, stage_serialize, stage_fsync;
    const auto stage_sample = [timed](obs::Histogram& local,
                                      obs::Histogram* global,
                                      std::int64_t start_us) {
        if (!timed) return;
        const std::int64_t us = obs::now_us() - start_us;
        local.observe(us);
        if (global) global->observe(us);
    };
    std::int64_t last_heartbeat_ms = 0; // driver thread only
    const auto stage_stats = [](const obs::Histogram& h) {
        return StageStats{h.count(), h.sum(), h.max()};
    };
    auto write_heartbeat = [&](const char* state) {
        if (!cfg.heartbeat) return;
        ShardStatus s;
        s.shard = cfg.shard_index;
        s.shards = cfg.shard_count;
        s.jobs_done = jobs_done;
        s.jobs_total = jobs_total;
        s.instances_done = run_job.instances_done.load();
        s.queue_depth = occupancy.queued;
        s.emitter_lag = occupancy.lagging;
        s.window = static_cast<long long>(occupancy.window);
        s.state = state;
        s.run = stage_stats(stage_run);
        s.serialize = stage_stats(stage_serialize);
        s.fsync = stage_stats(stage_fsync);
        write_status(cfg.directory, s);
        last_heartbeat_ms = obs::now_ms();
    };
    auto heartbeat_tick = [&] { // driver thread, between emissions
        if (!cfg.heartbeat) return;
        if (obs::now_ms() - last_heartbeat_ms < kHeartbeatIntervalMs) return;
        write_heartbeat("running");
    };
    write_heartbeat("running");

    // Durable checkpoint: sink bytes hit the disk before the manifest
    // vouches for them.
    auto checkpoint = [&](long long done_now) {
        const std::int64_t start_us = timed ? obs::now_us() : 0;
        jsonl.flush();
        index.flush(jsonl.offset());
        manifest.jobs_done = done_now;
        manifest.instances_done = done_now * trials;
        manifest.jsonl_bytes = jsonl.offset();
        manifest.complete = done_now == jobs_total;
        write_manifest(cfg.directory, manifest);
        stage_sample(stage_fsync, h_fsync, start_us);
        write_heartbeat("running");
    };

    const long long first_job = jobs_done;
    long long end_jobs = jobs_total;
    if (cfg.stop_after_batches > 0)
        end_jobs = std::min(
            end_jobs,
            first_job + static_cast<long long>(cfg.stop_after_batches) *
                            cfg.checkpoint_jobs);
    run_pipeline(
        pool, static_cast<std::size_t>(cfg.checkpoint_jobs),
        static_cast<std::size_t>(first_job),
        static_cast<std::size_t>(end_jobs), occupancy,
        [&](std::size_t j) {
            const std::int64_t start_us = timed ? obs::now_us() : 0;
            JobOutcome out = run_job(jobs[j]);
            stage_sample(stage_run, h_run, start_us);
            return out;
        },
        // Records leave in (ordinal, trial) order whichever worker
        // finished first, from the one thread the sinks expect.
        [&](std::size_t j, JobOutcome& out) {
            const std::int64_t start_us = timed ? obs::now_us() : 0;
            for (const InstanceRecord& rec : out.records) {
                index.add(rec.scenario_ordinal, rec.trial, jsonl.offset());
                jsonl.write(rec);
                if (cfg.sweep.record) cfg.sweep.record(rec);
            }
            merge_job_tables(result.tables, jobs[j].scenario, out.local);
            stage_sample(stage_serialize, h_serialize, start_us);
            jobs_done = static_cast<long long>(j) + 1;
            if ((jobs_done - first_job) % cfg.checkpoint_jobs == 0 ||
                jobs_done == jobs_total)
                checkpoint(jobs_done);
            heartbeat_tick();
        });

    write_heartbeat(jobs_done == jobs_total ? "done" : "stopped");
    result.jobs_done = jobs_done;
    result.instances_done = jobs_done * trials;
    result.complete = jobs_done == jobs_total;
    return result;
}

} // namespace

SweepResult run_sweep(const SweepConfig& cfg,
                      const std::vector<std::string>& heuristics) {
    validate_sweep(cfg, heuristics);
    const std::vector<GridJob> jobs = grid_jobs(cfg);
    JobRunner run_job{cfg, heuristics,
                      static_cast<long long>(jobs.size()) *
                          cfg.trials_per_scenario,
                      0};
    SweepResult result(heuristics);
    util::ThreadPool pool(cfg.threads);
    Occupancy occupancy;
    // The whole grid is queued at once (a window of its job count): a
    // shorter window idles workers behind a slow job at its head, and a
    // sweep has no sink whose pace should bound what it holds.
    run_pipeline(
        pool, jobs.size(), 0, jobs.size(), occupancy,
        [&](std::size_t j) { return run_job(jobs[j]); },
        [&](std::size_t j, JobOutcome& out) {
            if (cfg.record)
                for (const InstanceRecord& rec : out.records) cfg.record(rec);
            merge_job_tables(result, jobs[j].scenario, out.local);
        });
    return result;
}

CampaignResult run_campaign(const CampaignConfig& cfg) {
    util::ThreadPool pool(cfg.sweep.threads);
    return run_shard(cfg, pool);
}

// ---------------------------------------------------------------------------
// In-process parallel shards
// ---------------------------------------------------------------------------

ParallelCampaignResult run_parallel_campaign(const CampaignConfig& base) {
    if (base.shard_count < 1)
        throw std::invalid_argument("campaign: shard count must be >= 1");
    if (base.directory.empty())
        throw std::invalid_argument("campaign: no output directory");
    validate_sweep(base.sweep, base.heuristics);
    const int shards = base.shard_count;
    const int trials = base.sweep.trials_per_scenario;

    // Aggregated progress: every underlying progress call is exactly one
    // newly finished instance, so a shared counter over the full grid gives
    // a monotone campaign-wide (done, total) regardless of which shard's
    // worker reports.  Resumed shards start from their manifests' counts.
    const long long grid_instances =
        static_cast<long long>(grid_jobs(base.sweep).size()) * trials;
    std::atomic<long long> aggregate_done{0};
    if (base.resume) {
        for (int k = 1; k <= shards; ++k) {
            const auto dir =
                base.directory / shard_directory_name(k, shards);
            if (const auto m = read_manifest(dir))
                aggregate_done += m->instances_done;
        }
    }

    util::ThreadPool pool(base.sweep.threads);
    std::mutex record_mutex;

    std::vector<std::optional<CampaignResult>> results(
        static_cast<std::size_t>(shards));
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(shards));
    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<std::size_t>(shards));
    for (int k = 1; k <= shards; ++k) {
        drivers.emplace_back([&, k] {
            const auto slot = static_cast<std::size_t>(k - 1);
            try {
                CampaignConfig cfg = base;
                cfg.shard_index = k;
                cfg.directory =
                    base.directory / shard_directory_name(k, shards);
                if (base.sweep.progress)
                    cfg.sweep.progress = [&](long long, long long) {
                        base.sweep.progress(aggregate_done.fetch_add(1) + 1,
                                            grid_instances);
                    };
                if (base.sweep.record)
                    // Each shard's emitter is single-threaded, but N of
                    // them share the caller's hook.
                    cfg.sweep.record = [&](const InstanceRecord& rec) {
                        std::lock_guard lock(record_mutex);
                        base.sweep.record(rec);
                    };
                results[slot].emplace(run_shard(cfg, pool));
            } catch (...) {
                errors[slot] = std::current_exception();
            }
        });
    }
    for (auto& t : drivers) t.join();
    for (const auto& e : errors)
        if (e) std::rethrow_exception(e);

    ParallelCampaignResult out;
    out.complete = true;
    for (auto& r : results) {
        out.jobs_total += r->jobs_total;
        out.jobs_done += r->jobs_done;
        out.instances_done += r->instances_done;
        out.complete = out.complete && r->complete;
        out.shards.push_back(std::move(*r));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

std::vector<std::size_t>
place_shards(const std::vector<std::filesystem::path>& files,
             const std::vector<const CampaignHeader*>& headers,
             const std::string& who) {
    const auto reject = [&who](const std::string& what) {
        throw std::runtime_error(who + ": " + what);
    };
    const CampaignHeader& ref = *headers.front();
    const std::size_t missing = headers.size();
    std::vector<std::size_t> by_shard(
        static_cast<std::size_t>(ref.shard_count), missing);
    for (std::size_t i = 0; i < headers.size(); ++i) {
        if (headers[i]->fingerprint != ref.fingerprint)
            reject("'" + files[i].string() +
                   "' belongs to a different campaign (fingerprint "
                   "mismatch)");
        if (headers[i]->shard_count != ref.shard_count)
            reject("'" + files[i].string() +
                   "' disagrees on the shard count");
        const int k = headers[i]->shard_index;
        const auto slot = static_cast<std::size_t>(k - 1);
        if (k < 1 || k > ref.shard_count || by_shard[slot] != missing)
            reject("shard " + std::to_string(k) +
                   " appears twice or is out of range");
        by_shard[slot] = i;
    }
    for (std::size_t k = 0; k < by_shard.size(); ++k)
        if (by_shard[k] == missing)
            reject("shard " + std::to_string(k + 1) + " of " +
                   std::to_string(by_shard.size()) + " is missing");
    return by_shard;
}

SweepResult
merge_shards(const std::vector<std::filesystem::path>& jsonl_files) {
    if (jsonl_files.empty()) fail("merge: no shard files");

    // Open every shard and cross-validate the headers up front.
    std::vector<std::unique_ptr<ShardStream>> streams;
    std::vector<const CampaignHeader*> headers;
    for (const auto& file : jsonl_files) {
        streams.push_back(std::make_unique<ShardStream>(file));
        headers.push_back(&streams.back()->header());
    }
    const std::vector<std::size_t> by_shard =
        place_shards(jsonl_files, headers, "campaign: merge");
    const CampaignHeader& ref = *headers.front();

    // Streaming k-way merge.  The grid enumeration *is* the merged order:
    // shard k-of-N holds exactly the ordinals congruent to k-1 mod N, each
    // emitted in (ordinal, trial) order, so walking the grid and pulling
    // `trials` records from the owning shard visits every record exactly
    // once, in the order run_sweep reduces them — per-job tables built in
    // trial order, merged in ordinal order — keeping the floating-point
    // operation sequence, and therefore every digit, bit-identical to the
    // unsharded sweep.  Peak memory is O(shards + grid jobs), never
    // O(records).
    const std::vector<GridJob> grid = grid_jobs(ref.sweep);
    SweepResult result(ref.heuristics);
    for (const GridJob& job : grid) {
        ShardStream& shard = *streams[by_shard[static_cast<std::size_t>(
            job.ordinal % static_cast<std::uint64_t>(ref.shard_count))]];
        merge_job_tables(result, job.scenario,
                         read_job_records(shard, job,
                                          ref.sweep.trials_per_scenario,
                                          ref.heuristics.size(), kMergeCheck,
                                          nullptr));
    }
    for (const auto& stream : streams) expect_stream_end(*stream, kMergeCheck);
    return result;
}

// ---------------------------------------------------------------------------
// Directory layout
// ---------------------------------------------------------------------------

std::string shard_directory_name(int shard_index, int shard_count) {
    return "shard-" + std::to_string(shard_index) + "-of-" +
           std::to_string(shard_count);
}

std::vector<std::filesystem::path>
find_shard_directories(const std::filesystem::path& root) {
    std::vector<std::filesystem::path> dirs;
    if (!std::filesystem::is_directory(root)) return dirs;
    for (const auto& entry : std::filesystem::directory_iterator(root)) {
        if (!entry.is_directory()) continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind("shard-", 0) != 0) continue;
        if (!std::filesystem::exists(entry.path() / "records.jsonl"))
            continue;
        dirs.push_back(entry.path());
    }
    std::sort(dirs.begin(), dirs.end());
    return dirs;
}

} // namespace volsched::exp
