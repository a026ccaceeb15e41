#pragma once
/// \file index_sink.hpp
/// Sorted binary sidecar index over a campaign JSONL stream, plus the
/// query machinery built on it.  The campaign emitter writes one fixed-width
/// entry — (scenario ordinal, trial, byte offset of the record line) — per
/// JSONL record into records.idx next to records.jsonl.  Records leave the
/// emitter in (ordinal, trial) order, so append order *is* sorted order and
/// the sidecar needs no post-processing.
///
/// The index is **derived data**: its header vouches for a specific
/// fingerprint and JSONL byte length, and every reader validates both (plus
/// structural invariants) before trusting it.  Anything stale, torn, or
/// absent is rebuilt from a single JSONL scan and re-persisted — so the
/// sidecar never needs to participate in the campaign checkpoint/resume
/// contract, and deleting it is always safe.
///
/// On-disk format (little-endian, platform-independent):
///
///   header  32 bytes   magic "VSCHIDX1" | fingerprint u64 |
///                      jsonl_bytes u64 (stream length vouched for) |
///                      count u64
///   entries 20 bytes   ordinal u64 | trial u32 | offset u64   (x count,
///                      sorted by (ordinal, trial), offsets increasing)
///
/// Queries filter by ordinal/wmin/tasks/ncom ranges.  The scenario axes of
/// every ordinal are recomputed from the self-describing JSONL header's
/// grid enumeration — O(grid jobs), no record I/O — so a query reads
/// exactly the matching record lines, never the whole file, and checks each
/// against its entry before handing it out.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace volsched::exp {

/// One index entry: where record (ordinal, trial) starts in the JSONL file.
struct IndexEntry {
    std::uint64_t ordinal = 0;
    int trial = 0;
    std::uint64_t offset = 0;

    friend bool operator==(const IndexEntry&, const IndexEntry&) = default;
};

/// Sidecar path next to a shard's JSONL stream: records.jsonl -> records.idx.
std::filesystem::path index_path(const std::filesystem::path& jsonl_file);

/// Append-side writer, driven by the campaign emitter thread (single-threaded
/// like the JsonlSink it indexes).  Entries buffer in memory until flush(),
/// which appends them, rewrites the header to vouch for the JSONL length,
/// and fsyncs — called at every durable checkpoint, right before the
/// manifest.
class IndexSink {
public:
    /// Creates (or truncates) the sidecar and writes an empty header.
    IndexSink(std::filesystem::path path, std::uint64_t fingerprint);
    ~IndexSink();

    IndexSink(const IndexSink&) = delete;
    IndexSink& operator=(const IndexSink&) = delete;

    /// Buffers one entry; `offset` is the JSONL byte offset of the record's
    /// line (i.e. the sink's offset() *before* writing the record).
    void add(std::uint64_t ordinal, int trial, std::uint64_t offset);

    /// Appends buffered entries, stamps the header with `jsonl_bytes` (the
    /// JSONL stream length these entries cover), and makes it all durable.
    void flush(std::uint64_t jsonl_bytes);

    [[nodiscard]] const std::filesystem::path& path() const noexcept {
        return path_;
    }

private:
    void write_header(std::uint64_t jsonl_bytes);

    std::filesystem::path path_;
    std::FILE* file_ = nullptr;
    std::uint64_t fingerprint_ = 0;
    std::uint64_t count_ = 0; ///< entries already on disk
    std::vector<IndexEntry> pending_;
};

/// Reads and validates a sidecar against the campaign `fingerprint` and the
/// current `jsonl_bytes` of the stream it indexes.  Returns std::nullopt —
/// never throws — when the file is absent, torn, mis-fingerprinted, stale
/// (vouches for a different JSONL length), or structurally inconsistent
/// (entries out of (ordinal, trial) order or offsets not increasing): all
/// of those mean "rebuild from the JSONL".
std::optional<std::vector<IndexEntry>>
read_index(const std::filesystem::path& path, std::uint64_t fingerprint,
           std::uint64_t jsonl_bytes);

/// One-pass rebuild: scans the JSONL stream line-at-a-time (O(1) record
/// memory), returning the entry per record.  Throws std::runtime_error on a
/// malformed record (torn tail — resume the shard to self-heal first).
std::vector<IndexEntry>
build_index_entries(const std::filesystem::path& jsonl_file);

/// Writes a complete sidecar in one shot (rebuild path).  The result is
/// byte-identical to what the campaign's IndexSink would have produced for
/// the same stream.
void write_index_file(const std::filesystem::path& path,
                      std::uint64_t fingerprint, std::uint64_t jsonl_bytes,
                      const std::vector<IndexEntry>& entries);

/// The query read path: returns a valid entry set for `jsonl_file`, loading
/// the sidecar when it validates and otherwise rebuilding *and re-persisting*
/// it.  `rebuilt` (optional) reports which path was taken.  A rejected
/// header throws as in read_campaign_header.
std::vector<IndexEntry>
load_or_rebuild_index(const std::filesystem::path& jsonl_file,
                      bool* rebuilt = nullptr);

/// Inclusive range filters; an empty optional leaves that axis unfiltered.
/// wmin/tasks/ncom are resolved per ordinal from the campaign header's grid
/// enumeration, so filtering needs no record I/O.
struct QueryFilter {
    std::optional<std::pair<std::uint64_t, std::uint64_t>> ordinal;
    std::optional<std::pair<int, int>> wmin;
    std::optional<std::pair<int, int>> tasks;
    std::optional<std::pair<int, int>> ncom;
};

struct QueryStats {
    std::uint64_t matched = 0;   ///< records emitted
    int indexes_rebuilt = 0;     ///< shards whose sidecar was stale/absent
};

/// Streams every matching record's raw JSONL line (no trailing newline) in
/// global (ordinal, trial) order across the given shard files — the same
/// order an unsharded campaign would have emitted them, and byte-for-byte
/// the lines a full-file scan would select.  Shard headers are
/// cross-validated like merge_shards; sidecars are loaded or rebuilt per
/// load_or_rebuild_index.  Each shard is read front to back, with a seek
/// only where the next matching line does not follow the last one read.
/// Before a line is emitted it must parse as the record its index entry
/// names: a sidecar whose fingerprint, vouched-for length and entry order
/// all check out is still stale after a same-length edit of the JSONL that
/// moves a line boundary.  Such a line throws std::runtime_error naming the
/// shard, the byte offset and the sidecar (deleting the sidecar makes the
/// next query rebuild it); the lines emitted before it stand.  Also throws
/// std::runtime_error on inconsistent or unreadable shards.
QueryStats
query_shards(const std::vector<std::filesystem::path>& jsonl_files,
             const QueryFilter& filter,
             const std::function<void(const std::string& line)>& emit);

} // namespace volsched::exp
