#include "exp/sink.hpp"

#include <stdexcept>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "util/csv.hpp"
#include "util/json.hpp"

namespace volsched::exp {

namespace {

[[noreturn]] void io_fail(const std::filesystem::path& path,
                          const char* what) {
    throw std::runtime_error("sink: " + std::string(what) + " '" +
                             path.string() + "'");
}

} // namespace

// ---------------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------------

JsonlSink::JsonlSink(std::filesystem::path path,
                     const std::string& header_line)
    : path_(std::move(path)) {
    if (path_.has_parent_path())
        std::filesystem::create_directories(path_.parent_path());
    open_append();
    if (offset_ == 0 && !header_line.empty()) append(header_line + "\n");
}

JsonlSink::~JsonlSink() {
    if (file_) std::fclose(file_);
}

void JsonlSink::open_append() {
    file_ = std::fopen(path_.string().c_str(), "ab");
    if (!file_) io_fail(path_, "cannot open");
    offset_ = static_cast<std::uint64_t>(
        std::filesystem::file_size(path_));
}

void JsonlSink::append(std::string_view text) {
    if (std::fwrite(text.data(), 1, text.size(), file_) != text.size())
        io_fail(path_, "write error on");
    offset_ += text.size();
}

void JsonlSink::write(const InstanceRecord& rec) {
    append(format_record(rec) + "\n");
}

void JsonlSink::flush() {
    if (std::fflush(file_) != 0) io_fail(path_, "flush error on");
#ifndef _WIN32
    // The checkpoint manifest is fsync'd before its atomic rename; the
    // bytes it vouches for must be just as durable, or a power loss could
    // leave a manifest pointing past the end of the file.
    if (::fsync(::fileno(file_)) != 0) io_fail(path_, "fsync error on");
#endif
}

void JsonlSink::resume_at(std::uint64_t offset) {
    // Validate before touching the open handle: a caller that catches the
    // throw below still holds a usable sink.
    std::fflush(file_);
    const auto size =
        static_cast<std::uint64_t>(std::filesystem::file_size(path_));
    if (size < offset)
        throw std::runtime_error(
            "sink: '" + path_.string() + "' holds " + std::to_string(size) +
            " bytes but the checkpoint expects at least " +
            std::to_string(offset) + "; the output was tampered with");
    std::fclose(file_);
    file_ = nullptr;
    if (size > offset) std::filesystem::resize_file(path_, offset);
    open_append();
}

std::string JsonlSink::format_record(const InstanceRecord& rec) {
    std::string out = "{\"ordinal\":";
    out += std::to_string(rec.scenario_ordinal);
    out += ",\"trial\":";
    out += std::to_string(rec.trial);
    out += ",\"p\":";
    out += std::to_string(rec.scenario.p);
    out += ",\"tasks\":";
    out += std::to_string(rec.scenario.tasks);
    out += ",\"ncom\":";
    out += std::to_string(rec.scenario.ncom);
    out += ",\"wmin\":";
    out += std::to_string(rec.scenario.wmin);
    out += ",\"tdata_factor\":";
    out += util::json::number(rec.scenario.tdata_factor);
    out += ",\"tprog_factor\":";
    out += util::json::number(rec.scenario.tprog_factor);
    out += ",\"seed\":";
    out += std::to_string(rec.scenario.seed);
    if (rec.scenario.checkpoint != "none") {
        // Only written for real checkpoint sweeps, so classic campaigns
        // keep producing byte-identical files (and old files parse back).
        out += ",\"checkpoint\":\"";
        out += util::json::escape(rec.scenario.checkpoint);
        out += '"';
    }
    out += ",\"makespans\":[";
    for (std::size_t h = 0; h < rec.makespans.size(); ++h) {
        if (h) out += ',';
        out += std::to_string(rec.makespans[h]);
    }
    out += "]}";
    return out;
}

InstanceRecord JsonlSink::parse_record(std::string_view line) {
    const auto v = util::json::Value::parse(line);
    InstanceRecord rec;
    rec.scenario_ordinal = v.at("ordinal").as_u64();
    rec.trial = v.at("trial").as_int();
    rec.scenario.p = v.at("p").as_int();
    rec.scenario.tasks = v.at("tasks").as_int();
    rec.scenario.ncom = v.at("ncom").as_int();
    rec.scenario.wmin = v.at("wmin").as_int();
    rec.scenario.tdata_factor = v.at("tdata_factor").as_double();
    rec.scenario.tprog_factor = v.at("tprog_factor").as_double();
    rec.scenario.seed = v.at("seed").as_u64();
    if (const auto* ckpt = v.find("checkpoint"))
        rec.scenario.checkpoint = ckpt->as_string();
    for (const auto& m : v.at("makespans").items())
        rec.makespans.push_back(m.as_i64());
    return rec;
}

// ---------------------------------------------------------------------------
// CSV rows
// ---------------------------------------------------------------------------

std::string csv_header_row(const std::vector<std::string>& heuristics,
                           bool with_checkpoint) {
    std::string out = "ordinal,trial,p,tasks,ncom,wmin,tdata_factor,"
                      "tprog_factor,seed";
    if (with_checkpoint) out += ",checkpoint";
    for (const auto& h : heuristics) {
        out += ',';
        // Heuristic specs never contain CSV metacharacters today, but quote
        // defensively (RFC-4180).
        out += util::CsvWriter::escape(h);
    }
    return out;
}

std::string csv_row(const InstanceRecord& rec, bool with_checkpoint) {
    std::string out = std::to_string(rec.scenario_ordinal);
    out += ',';
    out += std::to_string(rec.trial);
    out += ',';
    out += std::to_string(rec.scenario.p);
    out += ',';
    out += std::to_string(rec.scenario.tasks);
    out += ',';
    out += std::to_string(rec.scenario.ncom);
    out += ',';
    out += std::to_string(rec.scenario.wmin);
    out += ',';
    out += util::json::number(rec.scenario.tdata_factor);
    out += ',';
    out += util::json::number(rec.scenario.tprog_factor);
    out += ',';
    out += std::to_string(rec.scenario.seed);
    if (with_checkpoint) {
        out += ',';
        out += util::CsvWriter::escape(rec.scenario.checkpoint);
    }
    for (long long m : rec.makespans) {
        out += ',';
        out += std::to_string(m);
    }
    return out;
}

} // namespace volsched::exp
