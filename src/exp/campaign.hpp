#pragma once
/// \file campaign.hpp
/// Campaign-scale sweeps: the Table-1 grid split into shards that run on
/// independent machines, stream per-instance records to durable sinks,
/// checkpoint their progress atomically, resume after interruption without
/// recomputation or duplicate records, and merge back into the paper's
/// overall / by-wmin / by-tasks / by-ncom tables **bit-identically** to a
/// single unsharded run_sweep.
///
/// Three properties make that possible:
///
///  1. *Shard-invariant seeding.*  Every scenario and trial derives its RNG
///     streams from (master seed, global grid ordinal, trial index) — never
///     from the shard, batch, or thread that happens to run it.  Shard k of
///     N takes the ordinals congruent to k-1 mod N (round-robin keeps the
///     grid cells balanced), so the union of shard outputs is exactly the
///     unsharded instance set.
///
///  2. *Deterministic emission.*  Jobs run on a thread pool, but a single
///     emitter — the only thread that touches the sinks — writes records
///     strictly in (ordinal, trial) order, so a shard's JSONL file is
///     byte-identical across runs and thread counts.  This completion
///     pipeline is the only run-ahead loop: run_sweep runs its grid on it
///     too, with no sinks, so both drivers share the job code and order.
///
///  3. *Canonical aggregation.*  The merge step replays records through the
///     exact reduction run_sweep performs (per-job DfbTable built in trial
///     order, merged in ordinal order), so the floating-point operation
///     sequence — and therefore every digit of the tables — matches.
///
/// Durability model: after every `checkpoint_jobs` scenario draws the
/// runner flushes the sinks and atomically replaces the MANIFEST file
/// (fingerprint, jobs done, the JSONL byte offset).  On resume the JSONL
/// stream is truncated to the manifest's offset, discarding any torn tail
/// a killed process left behind, and the shard-local tables are rebuilt by
/// replaying the surviving records.

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/sink.hpp"
#include "exp/sweep.hpp"

namespace volsched::exp {

/// A campaign is a sweep plus sharding, output, and checkpoint knobs.
struct CampaignConfig {
    SweepConfig sweep;
    std::vector<std::string> heuristics;
    /// Shard output directory; receives records.jsonl, records.idx and
    /// MANIFEST (plus status.json with `heartbeat`).
    std::filesystem::path directory;
    int shard_index = 1; ///< 1-based k of shard_count
    int shard_count = 1;
    /// Checkpoint cadence in scenario draws (jobs); also the unit of work
    /// lost on a kill.  Larger batches amortize the flush + manifest write.
    /// Workers run at most max(checkpoint_jobs, 8 x pool size) jobs ahead
    /// of the emitter, which bounds the records held in memory.
    int checkpoint_jobs = 8;
    /// Pick up an existing MANIFEST in `directory` (fingerprint-checked);
    /// false starts fresh, discarding previous outputs.
    bool resume = true;
    /// Stop after this many checkpoint batches (0: run to completion).
    /// Supports time-sliced operation and the kill/resume tests.
    int stop_after_batches = 0;
    /// Keep an atomically-replaced status.json heartbeat in the shard
    /// directory (exp/status.hpp): live progress, pipeline occupancy, and
    /// wall-clock stage timings for `volsched_campaign status` and other
    /// observers.  Purely operational — results are byte-identical with the
    /// heartbeat on or off.
    bool heartbeat = false;
};

struct CampaignResult {
    /// Shard-local aggregate tables (resumed records included).
    SweepResult tables;
    long long jobs_total = 0;
    long long jobs_done = 0;
    long long instances_done = 0;
    bool complete = false;
    std::filesystem::path jsonl_path;

    explicit CampaignResult(std::vector<std::string> names)
        : tables(std::move(names)) {}
};

/// The deterministic shard planner: jobs of the full grid whose ordinal is
/// congruent to shard_index-1 modulo shard_count.  Throws
/// std::invalid_argument on an out-of-range shard.
std::vector<GridJob> shard_jobs(const SweepConfig& cfg, int shard_index,
                                int shard_count);

/// Order-sensitive hash of everything that determines campaign results
/// (grid axes, counts, engine knobs, master seed, heuristic specs) —
/// deliberately excluding shard index and thread count.  Guards resume and
/// merge against mixing incompatible runs.
std::uint64_t campaign_fingerprint(const SweepConfig& cfg,
                                   const std::vector<std::string>& heuristics);

/// Self-description written as the first line of every shard JSONL file:
/// the full sweep configuration, heuristic list, shard position, and
/// fingerprint, so merge/status need no side-channel configuration.
std::string campaign_header_line(const CampaignConfig& cfg);

struct CampaignHeader {
    SweepConfig sweep; ///< progress/record hooks empty, threads defaulted
    std::vector<std::string> heuristics;
    int shard_index = 1;
    int shard_count = 1;
    std::uint64_t fingerprint = 0;
};

/// Strict inverse of campaign_header_line; recomputes the fingerprint from
/// the parsed configuration and throws std::invalid_argument when it does
/// not match the stored one (tampered or version-skewed file), or when the
/// grid fails exp::validate_grid (an axis or count a reader cannot size;
/// the message names the field).
CampaignHeader parse_campaign_header(const std::string& line);

/// The header of the shard file `jsonl_file`, read from `in`, the stream
/// just opened on it: parse_campaign_header on its first line, with every
/// message naming the file.  Leaves `in` at the first record line.  Throws
/// std::invalid_argument on a rejected header and std::runtime_error when
/// the file cannot be opened or is empty.
CampaignHeader read_campaign_header(std::istream& in,
                                    const std::filesystem::path& jsonl_file);

/// Compact progress manifest, replaced atomically at every checkpoint.
struct CampaignManifest {
    std::uint64_t fingerprint = 0;
    int shard_index = 1;
    int shard_count = 1;
    long long jobs_done = 0;
    long long jobs_total = 0;
    long long instances_done = 0;
    std::uint64_t jsonl_bytes = 0;
    bool complete = false;
};

std::filesystem::path manifest_path(const std::filesystem::path& dir);
void write_manifest(const std::filesystem::path& dir,
                    const CampaignManifest& m);
/// std::nullopt when no manifest exists; throws on a malformed one.  A
/// `csv <bytes>` line, which manifests carried while campaigns could also
/// stream records.csv, must hold one whole number and is ignored, so such
/// shards still resume.
std::optional<CampaignManifest>
read_manifest(const std::filesystem::path& dir);

/// Runs (or resumes) one shard of the campaign.  Returns after the shard
/// completes or after `stop_after_batches` checkpoints.  Throws
/// std::invalid_argument before any job runs on what validate_sweep
/// rejects, and std::runtime_error when an existing manifest does not match
/// the configuration (fingerprint or shard position).  After a hook or job
/// throws, the MANIFEST vouches for the last checkpoint; a rerun resumes.
CampaignResult run_campaign(const CampaignConfig& cfg);

/// All shards of an N-shard campaign driven from one process.
struct ParallelCampaignResult {
    std::vector<CampaignResult> shards; ///< in shard_index order, 1..N
    long long jobs_total = 0;
    long long jobs_done = 0;
    long long instances_done = 0;
    bool complete = false;
};

/// Runs every shard of the campaign in-process: `base.shard_count` shard
/// drivers (base.shard_index is ignored), each writing its own sink set and
/// manifest under `base.directory`/shard-k-of-N, all sharing one worker
/// pool sized by base.sweep.threads.  Because seeding is shard-invariant
/// and each shard has its own single-threaded emitter, per-shard outputs
/// are byte-identical to N separate single-shard processes.  Progress is
/// aggregated across shards before reaching base.sweep.progress; the
/// base.sweep.record hook, if any, is serialized across the shard emitters
/// (records arrive shard-interleaved, each shard in order).  Rejects what
/// validate_sweep rejects before any shard starts; the first shard failure
/// (by shard index) is rethrown after all drivers stop.
ParallelCampaignResult run_parallel_campaign(const CampaignConfig& base);

/// Reads shard JSONL files (headers must agree on the fingerprint) and
/// aggregates them canonically via a streaming k-way merge: shard files are
/// already emitted in (ordinal, trial) order and the round-robin planner
/// assigns each ordinal to exactly one shard, so the merge walks the grid,
/// pulls each job's trials from the owning shard's stream, and reduces
/// online through merge_job_tables.  Bit-identical to the unsharded
/// run_sweep; peak memory is O(shards + grid jobs), never O(records).
/// Throws when shards are missing, duplicated, or inconsistent.
SweepResult merge_shards(const std::vector<std::filesystem::path>& jsonl_files);

/// The shard-set check of merge_shards and query_shards (`headers[i]` is
/// `files[i]`'s): one fingerprint, one shard count, each shard 1..N exactly
/// once.  Returns shard k's position in `files` at [k-1]; throws
/// std::runtime_error with messages that start with `who`.
std::vector<std::size_t>
place_shards(const std::vector<std::filesystem::path>& files,
             const std::vector<const CampaignHeader*>& headers,
             const std::string& who);

/// Directory layout helpers: a campaign root holds one sub-directory per
/// shard, named shard-<k>-of-<N>.
std::string shard_directory_name(int shard_index, int shard_count);
/// Shard directories under `root` (sorted by name); only directories that
/// contain a records.jsonl count.
std::vector<std::filesystem::path>
find_shard_directories(const std::filesystem::path& root);

} // namespace volsched::exp
