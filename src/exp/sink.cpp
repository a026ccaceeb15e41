#include "exp/sink.hpp"

#include <stdexcept>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "util/cli.hpp"
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

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// One pass over a record line in the layout format_record writes: each
/// call consumes the next piece of that layout, or throws
/// std::invalid_argument naming the byte where the line departs from it.
class RecordScanner {
public:
    explicit RecordScanner(std::string_view line) : line_(line) {}

    /// Consumes `text` (punctuation and key) if the line continues with it.
    bool skip(std::string_view text) {
        if (line_.substr(pos_, text.size()) != text) return false;
        pos_ += text.size();
        return true;
    }

    void expect(std::string_view text) {
        if (!skip(text)) fail("expected '" + std::string(text) + "'");
    }

    void expect_end() const {
        if (pos_ != line_.size()) fail("trailing characters");
    }

    /// An integer token read whole into T, so a value that does not fit T
    /// throws instead of wrapping.
    template <typename T>
    T integer() {
        const std::size_t start = pos_;
        while (pos_ < line_.size() &&
               (is_digit(line_[pos_]) || line_[pos_] == '-'))
            ++pos_;
        T v{};
        if (!util::parse_whole(line_.substr(start, pos_ - start), v))
            fail_at(start, "bad integer");
        return v;
    }

    /// A JSON number token, read with std::from_chars as
    /// util::json::Value::as_double reads it.
    double number() {
        const std::size_t start = pos_;
        skip("-");
        bool ok = digits();
        if (ok && skip(".")) ok = digits();
        if (ok && (skip("e") || skip("E"))) {
            if (!skip("+")) skip("-");
            ok = digits();
        }
        double v = 0.0;
        if (!ok || !util::parse_whole(line_.substr(start, pos_ - start), v))
            fail_at(start, "bad number");
        return v;
    }

    /// The rest of a string literal whose opening quote is consumed,
    /// decoding exactly the escapes util::json::escape writes.
    std::string string() {
        std::string out;
        for (;;) {
            if (pos_ >= line_.size()) fail("unterminated string");
            const char c = line_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            const char e = pos_ < line_.size() ? line_[pos_++] : '\0';
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': out += control_escape(); break;
            default: fail("bad escape");
            }
        }
    }

private:
    [[noreturn]] void fail_at(std::size_t at, const std::string& what) const {
        throw std::invalid_argument("record: " + what + " at byte " +
                                    std::to_string(at));
    }
    [[noreturn]] void fail(const std::string& what) const {
        fail_at(pos_, what);
    }

    bool digits() {
        const std::size_t start = pos_;
        while (pos_ < line_.size() && is_digit(line_[pos_])) ++pos_;
        return pos_ > start;
    }

    /// The "00XX" after "\u": a control byte, XX in lowercase hex.
    char control_escape() {
        constexpr std::string_view hex = "0123456789abcdef";
        const std::string_view code = line_.substr(pos_, 4);
        const std::size_t low =
            code.size() == 4 ? hex.find(code[3]) : std::string_view::npos;
        if (low == std::string_view::npos || code.substr(0, 2) != "00" ||
            (code[2] != '0' && code[2] != '1'))
            fail("bad \\u escape");
        pos_ += 4;
        return static_cast<char>((code[2] - '0') * 16 + low);
    }

    std::string_view line_;
    std::size_t pos_ = 0;
};

} // namespace

InstanceRecord JsonlSink::parse_record(std::string_view line) {
    RecordScanner in(line);
    InstanceRecord rec;
    in.expect("{\"ordinal\":");
    rec.scenario_ordinal = in.integer<std::uint64_t>();
    in.expect(",\"trial\":");
    rec.trial = in.integer<int>();
    in.expect(",\"p\":");
    rec.scenario.p = in.integer<int>();
    in.expect(",\"tasks\":");
    rec.scenario.tasks = in.integer<int>();
    in.expect(",\"ncom\":");
    rec.scenario.ncom = in.integer<int>();
    in.expect(",\"wmin\":");
    rec.scenario.wmin = in.integer<int>();
    in.expect(",\"tdata_factor\":");
    rec.scenario.tdata_factor = in.number();
    in.expect(",\"tprog_factor\":");
    rec.scenario.tprog_factor = in.number();
    in.expect(",\"seed\":");
    rec.scenario.seed = in.integer<std::uint64_t>();
    if (in.skip(",\"checkpoint\":\"")) rec.scenario.checkpoint = in.string();
    in.expect(",\"makespans\":[");
    if (!in.skip("]")) {
        do {
            rec.makespans.push_back(in.integer<long long>());
        } while (in.skip(","));
        in.expect("]");
    }
    in.expect("}");
    in.expect_end();
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
