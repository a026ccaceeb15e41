#pragma once
/// \file sink.hpp
/// The campaign's record stream.  Instead of holding every per-instance
/// makespan vector in memory, a campaign streams one InstanceRecord per
/// (scenario, trial) instance into a JsonlSink: the durable,
/// self-describing record that shard merging, resume and queries read
/// back.  The CSV formatters render the same records as a spreadsheet
/// table (`volsched_campaign query --csv`).
///
/// The JSONL line format is canonical — fixed field order, shortest
/// round-trip numbers — so two runs that produce the same instances produce
/// byte-identical files, which is what makes "killed and resumed equals
/// uninterrupted" testable at the byte level.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "exp/scenario.hpp"

namespace volsched::exp {

/// One experiment instance: a scenario draw (identified by its global
/// position in the Table-1 grid enumeration), a trial index, and the
/// per-heuristic makespans (aligned with the campaign's heuristic list).
struct InstanceRecord {
    std::uint64_t scenario_ordinal = 0; ///< grid-global, shard-invariant
    int trial = 0;
    Scenario scenario;
    std::vector<long long> makespans;
};

/// JSON-lines sink: one self-contained object per instance, preceded by a
/// caller-supplied header line (the campaign writes its metadata there),
/// appended with byte-offset accounting (the checkpoint currency) and
/// truncate-to-offset resume.  Called from one thread at a time (the
/// drivers serialize emission); no locking.
///
///   {"ordinal":12,"trial":0,"p":20,"tasks":5,"ncom":5,"wmin":1,
///    "tdata_factor":1,"tprog_factor":5,"seed":123,"makespans":[100,120]}
class JsonlSink {
public:
    /// Opens `path` for appending, creating it (plus parent directories)
    /// when absent; `header_line` (without trailing newline) is written
    /// first iff the file is new or empty.  Pass "" for a headerless stream.
    explicit JsonlSink(std::filesystem::path path,
                       const std::string& header_line = {});
    ~JsonlSink();

    JsonlSink(const JsonlSink&) = delete;
    JsonlSink& operator=(const JsonlSink&) = delete;

    /// Appends the record's canonical line.
    void write(const InstanceRecord& rec);
    /// Makes everything written so far durable (fflush + fsync): called
    /// once per checkpoint batch, right before the manifest is replaced.
    void flush();

    /// Bytes in the file so far (header included); what a campaign
    /// checkpoint manifest records.
    [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

    /// The resume contract: truncates the file to `offset` bytes — exactly
    /// the state of the last durable checkpoint — and continues appending
    /// from there.  Bytes written after that checkpoint (possibly a torn
    /// line from a killed process) are discarded, so a resumed campaign
    /// adds zero duplicate records.  Throws std::runtime_error if the file
    /// is shorter than `offset`.
    void resume_at(std::uint64_t offset);

    /// Canonical record line (no trailing newline).
    static std::string format_record(const InstanceRecord& rec);
    /// Strict inverse of format_record; throws std::invalid_argument on
    /// malformed input.  The scenario's chain recipe is the paper default
    /// (records do not carry it).
    static InstanceRecord parse_record(std::string_view line);

private:
    void open_append();
    void append(std::string_view text);

    std::filesystem::path path_;
    std::FILE* file_ = nullptr;
    std::uint64_t offset_ = 0;
};

/// CSV header row: the scenario columns, then one makespan column per
/// heuristic spec.  `with_checkpoint` adds a checkpoint-policy column
/// (wanted exactly when the campaign's checkpoint axis is not the single
/// "none", so classic-campaign tables keep their historical shape).
std::string csv_header_row(const std::vector<std::string>& heuristics,
                           bool with_checkpoint = false);
/// One record as a CSV row under csv_header_row (no trailing newline).
std::string csv_row(const InstanceRecord& rec, bool with_checkpoint = false);

} // namespace volsched::exp
