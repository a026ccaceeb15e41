#include "exp/index_sink.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "exp/campaign.hpp"
#include "exp/sweep.hpp"
#include "util/atomic_io.hpp"

namespace volsched::exp {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("index: " + what);
}

constexpr char kMagic[8] = {'V', 'S', 'C', 'H', 'I', 'D', 'X', '1'};
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kEntryBytes = 20;

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint64_t get_u64(const char* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

std::uint32_t get_u32(const char* p) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

std::string serialize_header(std::uint64_t fingerprint,
                             std::uint64_t jsonl_bytes, std::uint64_t count) {
    std::string out;
    out.reserve(kHeaderBytes);
    out.append(kMagic, sizeof kMagic);
    put_u64(out, fingerprint);
    put_u64(out, jsonl_bytes);
    put_u64(out, count);
    return out;
}

std::string serialize_entries(const std::vector<IndexEntry>& entries) {
    std::string out;
    out.reserve(entries.size() * kEntryBytes);
    for (const IndexEntry& e : entries) {
        put_u64(out, e.ordinal);
        put_u32(out, static_cast<std::uint32_t>(e.trial));
        put_u64(out, e.offset);
    }
    return out;
}

/// The structural invariant every reader enforces: strictly ascending
/// (ordinal, trial) keys with strictly increasing offsets bounded by the
/// JSONL length — exactly what in-order emission produces.
bool entries_consistent(const std::vector<IndexEntry>& entries,
                        std::uint64_t jsonl_bytes) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const IndexEntry& e = entries[i];
        if (e.trial < 0 || e.offset >= jsonl_bytes) return false;
        if (i == 0) continue;
        const IndexEntry& prev = entries[i - 1];
        if (e.offset <= prev.offset) return false;
        if (std::pair(e.ordinal, e.trial) <=
            std::pair(prev.ordinal, prev.trial))
            return false;
    }
    return true;
}

} // namespace

std::filesystem::path index_path(const std::filesystem::path& jsonl_file) {
    std::filesystem::path p = jsonl_file;
    p.replace_extension(".idx");
    return p;
}

// ---------------------------------------------------------------------------
// IndexSink (append side, campaign emitter thread)
// ---------------------------------------------------------------------------

IndexSink::IndexSink(std::filesystem::path path, std::uint64_t fingerprint)
    : path_(std::move(path)), fingerprint_(fingerprint) {
    if (path_.has_parent_path())
        std::filesystem::create_directories(path_.parent_path());
    file_ = std::fopen(path_.string().c_str(), "wb");
    if (!file_) fail("cannot open '" + path_.string() + "'");
    write_header(0);
}

IndexSink::~IndexSink() {
    if (file_) std::fclose(file_);
}

void IndexSink::add(std::uint64_t ordinal, int trial, std::uint64_t offset) {
    pending_.push_back({ordinal, trial, offset});
}

void IndexSink::write_header(std::uint64_t jsonl_bytes) {
    const std::string header =
        serialize_header(fingerprint_, jsonl_bytes, count_);
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
        std::fseek(file_, 0, SEEK_END) != 0)
        fail("write error on '" + path_.string() + "'");
}

void IndexSink::flush(std::uint64_t jsonl_bytes) {
    const std::string block = serialize_entries(pending_);
    if (std::fwrite(block.data(), 1, block.size(), file_) != block.size())
        fail("write error on '" + path_.string() + "'");
    count_ += pending_.size();
    pending_.clear();
    // Entries land before the header vouches for them: a crash between the
    // two leaves a header describing a shorter, still-valid prefix.
    write_header(jsonl_bytes);
    if (std::fflush(file_) != 0)
        fail("flush error on '" + path_.string() + "'");
#ifndef _WIN32
    if (::fsync(::fileno(file_)) != 0)
        fail("fsync error on '" + path_.string() + "'");
#endif
}

// ---------------------------------------------------------------------------
// Read / rebuild
// ---------------------------------------------------------------------------

std::optional<std::vector<IndexEntry>>
read_index(const std::filesystem::path& path, std::uint64_t fingerprint,
           std::uint64_t jsonl_bytes) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (data.size() < kHeaderBytes) return std::nullopt;
    if (std::memcmp(data.data(), kMagic, sizeof kMagic) != 0)
        return std::nullopt;
    if (get_u64(data.data() + 8) != fingerprint) return std::nullopt;
    if (get_u64(data.data() + 16) != jsonl_bytes) return std::nullopt;
    const std::uint64_t count = get_u64(data.data() + 24);
    // A crash may leave appended-but-unvouched entries past the header's
    // count; anything *shorter* than the count is torn.  Divided, not
    // multiplied: a hostile count must not wrap the bound.
    if (count > (data.size() - kHeaderBytes) / kEntryBytes) return std::nullopt;
    std::vector<IndexEntry> entries;
    entries.reserve(count);
    const char* p = data.data() + kHeaderBytes;
    for (std::uint64_t i = 0; i < count; ++i, p += kEntryBytes) {
        IndexEntry e;
        e.ordinal = get_u64(p);
        e.trial = static_cast<int>(get_u32(p + 8));
        e.offset = get_u64(p + 12);
        entries.push_back(e);
    }
    if (!entries_consistent(entries, jsonl_bytes)) return std::nullopt;
    return entries;
}

std::vector<IndexEntry>
build_index_entries(const std::filesystem::path& jsonl_file) {
    std::ifstream in(jsonl_file);
    if (!in) fail("cannot open '" + jsonl_file.string() + "'");
    std::string line;
    if (!std::getline(in, line))
        fail("'" + jsonl_file.string() + "' is empty");
    std::uint64_t offset = line.size() + 1; // header line + newline
    std::vector<IndexEntry> entries;
    while (std::getline(in, line)) {
        const std::uint64_t line_offset = offset;
        offset += line.size() + 1;
        if (line.empty()) continue;
        InstanceRecord rec;
        try {
            rec = JsonlSink::parse_record(line);
        } catch (const std::invalid_argument& e) {
            fail("'" + jsonl_file.string() + "' holds a malformed record (" +
                 e.what() + "); was the shard killed without a checkpoint? "
                 "resume it to self-heal, or delete the torn tail");
        }
        entries.push_back({rec.scenario_ordinal, rec.trial, line_offset});
    }
    return entries;
}

void write_index_file(const std::filesystem::path& path,
                      std::uint64_t fingerprint, std::uint64_t jsonl_bytes,
                      const std::vector<IndexEntry>& entries) {
    std::string out = serialize_header(fingerprint, jsonl_bytes,
                                       static_cast<std::uint64_t>(
                                           entries.size()));
    out += serialize_entries(entries);
    util::write_file_atomic(path, out);
}

namespace {

/// load_or_rebuild_index for a shard whose header names `fingerprint`.
std::vector<IndexEntry> load_or_rebuild(const std::filesystem::path& jsonl_file,
                                        std::uint64_t fingerprint,
                                        bool* rebuilt) {
    const auto jsonl_bytes =
        static_cast<std::uint64_t>(std::filesystem::file_size(jsonl_file));
    const auto sidecar = index_path(jsonl_file);
    if (auto entries = read_index(sidecar, fingerprint, jsonl_bytes)) {
        if (rebuilt) *rebuilt = false;
        return std::move(*entries);
    }
    std::vector<IndexEntry> entries = build_index_entries(jsonl_file);
    if (!entries_consistent(entries, jsonl_bytes))
        fail("'" + jsonl_file.string() +
             "' records are not in (ordinal, trial) order; not a campaign "
             "shard stream");
    write_index_file(sidecar, fingerprint, jsonl_bytes, entries);
    if (rebuilt) *rebuilt = true;
    return entries;
}

} // namespace

std::vector<IndexEntry>
load_or_rebuild_index(const std::filesystem::path& jsonl_file,
                      bool* rebuilt) {
    std::ifstream in(jsonl_file);
    return load_or_rebuild(jsonl_file,
                           read_campaign_header(in, jsonl_file).fingerprint,
                           rebuilt);
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

namespace {

template <class T>
bool in_range(T value, const std::optional<std::pair<T, T>>& range) {
    return !range || (value >= range->first && value <= range->second);
}

bool job_matches(const GridJob& job, const QueryFilter& f) {
    return in_range(job.ordinal, f.ordinal) &&
           in_range(job.scenario.wmin, f.wmin) &&
           in_range(job.scenario.tasks, f.tasks) &&
           in_range(job.scenario.ncom, f.ncom);
}

/// One shard's read state: validated header, (loaded or rebuilt) index, and
/// an open stream to read record lines out of.
struct ShardIndex {
    std::filesystem::path path;
    CampaignHeader header;
    std::vector<IndexEntry> entries;
    std::ifstream in;
    std::uint64_t next_offset = 0; ///< where `in` reads from next

    /// The record line `entry` names.  Seeks only when the entry does not
    /// start where the previous line ended, and throws unless the line
    /// parses as the record the entry names: a sidecar that vouches for the
    /// file's fingerprint and length still goes stale when a same-length
    /// edit moves a line boundary.
    void read(const IndexEntry& entry, std::string& line) {
        if (entry.offset != next_offset) {
            in.clear();
            in.seekg(static_cast<std::streamoff>(entry.offset));
        }
        if (!std::getline(in, line)) stale(entry, "holds no line");
        next_offset = entry.offset + line.size() + 1;
        try {
            const InstanceRecord rec = JsonlSink::parse_record(line);
            if (rec.scenario_ordinal == entry.ordinal &&
                rec.trial == entry.trial)
                return;
            stale(entry, "holds (ordinal " +
                             std::to_string(rec.scenario_ordinal) +
                             ", trial " + std::to_string(rec.trial) + ")");
        } catch (const std::invalid_argument& e) {
            stale(entry, std::string("holds no record (") + e.what() + ")");
        }
    }

    [[noreturn]] void stale(const IndexEntry& entry,
                            const std::string& found) const {
        fail("query: '" + path.string() + "' at byte " +
             std::to_string(entry.offset) + " " + found +
             " where its sidecar '" + index_path(path).string() +
             "' names (ordinal " + std::to_string(entry.ordinal) +
             ", trial " + std::to_string(entry.trial) +
             "); the sidecar is stale: delete it and the next query "
             "rebuilds it");
    }
};

} // namespace

QueryStats
query_shards(const std::vector<std::filesystem::path>& jsonl_files,
             const QueryFilter& filter,
             const std::function<void(const std::string& line)>& emit) {
    if (jsonl_files.empty()) fail("query: no shard files");

    QueryStats stats;
    std::vector<std::unique_ptr<ShardIndex>> shards;
    std::vector<const CampaignHeader*> headers;
    for (const auto& file : jsonl_files) {
        auto shard = std::make_unique<ShardIndex>();
        shard->path = file;
        shard->in.open(file);
        try {
            shard->header = read_campaign_header(shard->in, file);
        } catch (const std::invalid_argument& e) {
            fail(e.what()); // a query reports every unreadable shard alike
        }
        shard->next_offset = static_cast<std::uint64_t>(shard->in.tellg());
        bool rebuilt = false;
        shard->entries =
            load_or_rebuild(file, shard->header.fingerprint, &rebuilt);
        if (rebuilt) ++stats.indexes_rebuilt;
        headers.push_back(&shard->header);
        shards.push_back(std::move(shard));
    }
    const std::vector<std::size_t> by_shard =
        place_shards(jsonl_files, headers, "index: query");
    const CampaignHeader& ref = *headers.front();

    // Walk the grid in global (ordinal, trial) order — the unsharded
    // emission order — filtering on grid axes without touching records,
    // then read only the matching lines, seeking only past the lines in
    // between.  Jobs not yet durable in a still-running campaign simply
    // have no index entries and are skipped.
    const std::vector<GridJob> grid = grid_jobs(ref.sweep);
    std::string line;
    for (const GridJob& job : grid) {
        if (!job_matches(job, filter)) continue;
        ShardIndex& shard = *shards[by_shard[static_cast<std::size_t>(
            job.ordinal % static_cast<std::uint64_t>(ref.shard_count))]];
        const auto lo = std::lower_bound(
            shard.entries.begin(), shard.entries.end(), job.ordinal,
            [](const IndexEntry& e, std::uint64_t ord) {
                return e.ordinal < ord;
            });
        const auto hi = std::upper_bound(
            lo, shard.entries.end(), job.ordinal,
            [](std::uint64_t ord, const IndexEntry& e) {
                return ord < e.ordinal;
            });
        for (auto it = lo; it != hi; ++it) {
            shard.read(*it, line);
            emit(line);
            ++stats.matched;
        }
    }
    return stats;
}

} // namespace volsched::exp
