/// Deterministic mutation fuzzing of the readers of untrusted bytes.  Each
/// case seeds util::Rng, picks a line of a canonical corpus, mutates it (bit
/// flips, truncations, chunk duplications, whitespace insertions, splices of
/// boundary number tokens) and checks the reader's contract: it parses or
/// throws its documented exception, and never accepts what an independent
/// reference rejects.  A failure prints one line with the seed, the mutation
/// and the input.
///
/// Target: exp::JsonlSink::parse_record.  Its reference is the JSON-DOM
/// reader it replaced (reference_parse below), which accepts every layout a
/// JSON parser does; the one-pass reader accepts only format_record's.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cstdint>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/sink.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ve = volsched::exp;
namespace vu = volsched::util;

namespace {

/// The DOM reader parse_record used to be: any JSON object with these keys.
ve::InstanceRecord reference_parse(std::string_view line) {
    const auto v = vu::json::Value::parse(line);
    ve::InstanceRecord rec;
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

/// The first field on which two records differ, or "" when they are equal
/// (factors compared bit for bit).
std::string first_difference(const ve::InstanceRecord& a,
                             const ve::InstanceRecord& b) {
    const auto& x = a.scenario;
    const auto& y = b.scenario;
    if (a.scenario_ordinal != b.scenario_ordinal) return "ordinal";
    if (a.trial != b.trial) return "trial";
    if (x.p != y.p) return "p";
    if (x.tasks != y.tasks) return "tasks";
    if (x.ncom != y.ncom) return "ncom";
    if (x.wmin != y.wmin) return "wmin";
    if (std::bit_cast<std::uint64_t>(x.tdata_factor) !=
        std::bit_cast<std::uint64_t>(y.tdata_factor))
        return "tdata_factor";
    if (std::bit_cast<std::uint64_t>(x.tprog_factor) !=
        std::bit_cast<std::uint64_t>(y.tprog_factor))
        return "tprog_factor";
    if (x.seed != y.seed) return "seed";
    if (x.checkpoint != y.checkpoint) return "checkpoint";
    if (a.makespans != b.makespans) return "makespans";
    return "";
}

/// A checkpoint string holding every byte json::escape treats specially,
/// plus bytes it passes through raw.
std::string hostile_checkpoint() {
    std::string s = "q\"b\\s/";
    for (int c = 0; c < 0x20; ++c) s += static_cast<char>(c);
    s += "\x7f\xc3\xa9\xff";
    return s;
}

/// format_record's output over each field's range: ordinal and seed at 0
/// and 2^64-1, the int fields at INT_MIN and INT_MAX, five factors, three
/// checkpoint strings and three makespan lists, each field cycling with its
/// own period so the extremes appear in many combinations.
std::vector<ve::InstanceRecord> corpus_records() {
    const std::uint64_t u64s[] = {0, UINT64_MAX};
    const int ints[] = {INT_MIN, INT_MAX};
    const double factors[] = {0.0, 1.5, 5.25, 5e-324, 1e300};
    const std::string checkpoints[] = {"none", "risk(percent=25)",
                                       hostile_checkpoint()};
    std::vector<long long> seventeen = {LLONG_MIN, LLONG_MAX};
    for (long long m = 0; seventeen.size() < 17; m = m * 10 + 7)
        seventeen.push_back(m);
    const std::vector<long long> lists[] = {{}, {1234}, seventeen};

    std::vector<ve::InstanceRecord> out;
    for (std::size_t i = 0; i < 30; ++i) {
        ve::InstanceRecord r;
        r.scenario_ordinal = u64s[i % 2];
        r.trial = ints[(i / 2) % 2];
        r.scenario.p = ints[(i + 1) % 2];
        r.scenario.tasks = ints[(i / 3) % 2];
        r.scenario.ncom = ints[(i / 5) % 2];
        r.scenario.wmin = ints[(i / 7) % 2];
        r.scenario.tdata_factor = factors[i % 5];
        r.scenario.tprog_factor = factors[(i + 2) % 5];
        r.scenario.seed = u64s[(i / 2 + i / 3) % 2];
        r.scenario.checkpoint = checkpoints[i % 3];
        r.makespans = lists[(i / 3) % 3];
        out.push_back(r);
    }
    // And one record as a campaign writes it.
    ve::InstanceRecord typical;
    typical.scenario_ordinal = 17;
    typical.trial = 2;
    typical.scenario.tasks = 40;
    typical.scenario.seed = 0x9E3779B97F4A7C15ULL;
    typical.makespans = {812, 790, 1033};
    out.push_back(typical);
    return out;
}

std::vector<std::string> corpus_lines() {
    std::vector<std::string> lines;
    for (const auto& r : corpus_records())
        lines.push_back(ve::JsonlSink::format_record(r));
    return lines;
}

/// `s` with every byte outside printable ASCII, '"' and '\' as \xNN.
std::string printable(std::string_view s) {
    constexpr char hex[] = "0123456789abcdef";
    std::string out;
    for (unsigned char c : s) {
        if (c >= 0x20 && c < 0x7f && c != '"' && c != '\\') {
            out += static_cast<char>(c);
        } else {
            out += "\\x";
            out += hex[c >> 4];
            out += hex[c & 0xF];
        }
    }
    return out;
}

/// [begin, end) of each number token: a run of number characters right
/// after ':', ',' or '['.
std::vector<std::pair<std::size_t, std::size_t>>
number_tokens(const std::string& line) {
    const auto is_num = [](char c) {
        return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
               c == 'e' || c == 'E';
    };
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    for (std::size_t i = 1; i < line.size(); ++i) {
        const char prev = line[i - 1];
        if ((prev != ':' && prev != ',' && prev != '[') || !is_num(line[i]))
            continue;
        std::size_t end = i;
        while (end < line.size() && is_num(line[end])) ++end;
        spans.emplace_back(i, end);
        i = end;
    }
    return spans;
}

std::size_t pick(vu::Rng& rng, std::size_t n) { // uniform in [0, n)
    return static_cast<std::size_t>(rng.uniform_int(0, n - 1));
}

/// Applies one seeded mutation to `line`, appending what it did to `what`.
void mutate_once(std::string& line, vu::Rng& rng, std::string& what) {
    // The last two are number tokens JSON forbids but std::from_chars reads.
    static const char* const kSplices[] = {
        "-0", "007", "1.50", "2147483648", "18446744073709551616", "1e309",
        ".5", "5."};
    if (!what.empty()) what += "; ";
    const auto at = [](std::size_t i) { return std::to_string(i); };
    switch (rng.uniform_int(0, 4)) {
    case 0: {
        if (line.empty()) break;
        const std::size_t i = pick(rng, line.size());
        const int bit = static_cast<int>(rng.uniform_int(0, 7));
        line[i] = static_cast<char>(line[i] ^ (1 << bit));
        what += "flip bit " + std::to_string(bit) + " of byte " + at(i);
        return;
    }
    case 1: {
        if (line.empty()) break;
        const std::size_t n = pick(rng, line.size());
        line.resize(n);
        what += "truncate to " + at(n) + " bytes";
        return;
    }
    case 2: {
        if (line.empty()) break;
        const std::size_t from = pick(rng, line.size());
        const std::size_t len =
            1 + pick(rng, std::min<std::size_t>(16, line.size() - from));
        const std::size_t to = pick(rng, line.size() + 1);
        line.insert(to, line.substr(from, len));
        what += "copy bytes [" + at(from) + "," + at(from + len) +
                ") to byte " + at(to);
        return;
    }
    case 3: {
        static constexpr char kSpace[] = {' ', '\t', '\r', '\n'};
        const char c = kSpace[pick(rng, 4)];
        const std::size_t to = pick(rng, line.size() + 1);
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(to), c);
        what += "insert '" + printable(std::string(1, c)) + "' at byte " +
                at(to);
        return;
    }
    default: {
        const auto spans = number_tokens(line);
        if (spans.empty()) break;
        const auto [begin, end] = spans[pick(rng, spans.size())];
        const std::string token = kSplices[pick(rng, std::size(kSplices))];
        line.replace(begin, end - begin, token);
        what += "splice '" + token + "' over bytes [" + at(begin) + "," +
                at(end) + ")";
        return;
    }
    }
    what += "no-op on an empty line";
}

/// What is wrong with parse_record's answer on `line`, or "" when it keeps
/// the contract.  `accepted` reports whether it parsed.
std::string check_line(const std::string& line, bool& accepted) {
    accepted = false;
    ve::InstanceRecord got;
    try {
        got = ve::JsonlSink::parse_record(line);
        accepted = true;
    } catch (const std::invalid_argument&) {
        return "";
    } catch (const std::exception& e) {
        return std::string("threw a non-argument error: ") + e.what();
    } catch (...) {
        return "threw a non-exception";
    }
    ve::InstanceRecord want;
    try {
        want = reference_parse(line);
    } catch (const std::exception& e) {
        return std::string("accepted a line the reference rejects (") +
               e.what() + ")";
    }
    if (const auto field = first_difference(got, want); !field.empty())
        return "parsed " + field + " unlike the reference";
    return "";
}

} // namespace

TEST(RecordFuzz, CorpusRoundTripsByteExactly) {
    for (const auto& line : corpus_lines()) {
        SCOPED_TRACE(printable(line));
        ve::InstanceRecord rec;
        ASSERT_NO_THROW(rec = ve::JsonlSink::parse_record(line));
        EXPECT_EQ(ve::JsonlSink::format_record(rec), line);
        EXPECT_EQ(first_difference(rec, reference_parse(line)), "");
    }
}

TEST(RecordFuzz, MutatedLinesParseAsTheReferenceOrThrowInvalidArgument) {
    constexpr std::uint64_t kFirstSeed = 20110526;
    constexpr int kCases = 20000;
    const auto lines = corpus_lines();
    int accepted = 0;
    int failures = 0;
    for (int i = 0; i < kCases && failures < 10; ++i) {
        const std::uint64_t seed = kFirstSeed + static_cast<std::uint64_t>(i);
        vu::Rng rng(seed);
        std::string input = lines[pick(rng, lines.size())];
        std::string what;
        mutate_once(input, rng, what);
        if (rng.uniform_int(0, 3) == 0) mutate_once(input, rng, what);
        bool ok = false;
        if (const auto verdict = check_line(input, ok); !verdict.empty()) {
            ++failures;
            ADD_FAILURE() << "seed " << seed << " mutation " << what
                          << " input \"" << printable(input)
                          << "\": " << verdict;
        }
        accepted += ok ? 1 : 0;
    }
    // Both outcomes must be exercised, or the mutations test nothing.
    EXPECT_GT(accepted, kCases / 50);
    EXPECT_LT(accepted, kCases / 2);
}

TEST(RecordFuzz, RejectsLayoutsNoWriterProduces) {
    ve::InstanceRecord rec;
    rec.scenario_ordinal = 3;
    rec.trial = 1;
    rec.scenario.seed = 77;
    rec.scenario.checkpoint = "daly";
    rec.makespans = {10, 12};
    const std::string line = ve::JsonlSink::format_record(rec);
    const auto replaced = [&line](std::string_view from, std::string_view to) {
        std::string out = line;
        const auto at = out.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return out.replace(at, from.size(), to);
    };
    // Each of these is JSON with the record's keys and values, so the DOM
    // reader accepted it, but no writer ever produced it.
    const std::pair<const char*, std::string> layouts[] = {
        {"space after a colon", replaced("\"p\":", "\"p\": ")},
        {"space after a comma", replaced(",\"tasks\"", ", \"tasks\"")},
        {"leading space", " " + line},
        {"trailing carriage return", line + "\r"},
        {"another key order",
         replaced("\"ordinal\":3,\"trial\":1", "\"trial\":1,\"ordinal\":3")},
        {"unknown key", replaced(",\"makespans\"", ",\"note\":1,\"makespans\"")},
        {"repeated key", replaced(",\"seed\":77", ",\"seed\":77,\"seed\":77")},
        {"checkpoint after makespans",
         replaced(",\"checkpoint\":\"daly\",\"makespans\":[10,12]}",
                  ",\"makespans\":[10,12],\"checkpoint\":\"daly\"}")},
    };
    ASSERT_NO_THROW((void)ve::JsonlSink::parse_record(line));
    for (const auto& [name, bad] : layouts) {
        SCOPED_TRACE(name);
        EXPECT_EQ(first_difference(reference_parse(bad), rec), "");
        EXPECT_THROW((void)ve::JsonlSink::parse_record(bad),
                     std::invalid_argument);
    }
}
