#include "api/spec.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/spec_registry.hpp"
#include "util/cli.hpp"

namespace volsched::api {
namespace {

[[noreturn]] void fail(std::string_view text, const std::string& what) {
    throw std::invalid_argument("spec '" + std::string(text) + "': " + what);
}

std::string_view trim(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
        s.remove_suffix(1);
    return s;
}

std::string check_token(std::string_view full, std::string_view tok,
                        const char* role) {
    tok = trim(tok);
    if (tok.empty()) fail(full, std::string("empty ") + role);
    for (char c : tok)
        if (is_spec_structural_char(c))
            fail(full, std::string(role) + " '" + std::string(tok) +
                           "' contains the reserved character '" + c + "'");
    return std::string(tok);
}

/// Parses one stage `name[(k=v,...)]` from `stage_text`.
SchedulerSpec parse_stage(std::string_view full, std::string_view stage_text) {
    stage_text = trim(stage_text);
    const auto open = stage_text.find('(');
    SchedulerSpec spec;
    if (open == std::string_view::npos) {
        spec.set_name(check_token(full, stage_text, "stage name"));
        return spec;
    }
    if (stage_text.back() != ')')
        fail(full, "missing ')' in stage '" + std::string(stage_text) + "'");
    spec.set_name(check_token(full, stage_text.substr(0, open), "stage name"));
    std::string_view body =
        stage_text.substr(open + 1, stage_text.size() - open - 2);
    if (trim(body).empty())
        fail(full, "empty option list in stage '" + spec.name() + "'");
    while (true) {
        const auto comma = body.find(',');
        const std::string_view kv =
            comma == std::string_view::npos ? body : body.substr(0, comma);
        const auto eq = kv.find('=');
        if (eq == std::string_view::npos)
            fail(full, "option '" + std::string(trim(kv)) +
                           "' is not of the form key=value");
        std::string key = check_token(full, kv.substr(0, eq), "option key");
        std::string value =
            check_token(full, kv.substr(eq + 1), "option value");
        if (spec.option(key) != nullptr)
            fail(full, "duplicate option key '" + key + "'");
        spec.add_option(std::move(key), std::move(value));
        if (comma == std::string_view::npos) break;
        body = body.substr(comma + 1);
    }
    return spec;
}

} // namespace

bool is_spec_structural_char(char c) noexcept {
    return c == ':' || c == '(' || c == ')' || c == ',' || c == '=';
}

namespace {

/// Parses `text`, attributing errors to the user's complete input `full`
/// (the recursion below hands in ever-shorter tails).
SchedulerSpec parse_spec(std::string_view full, std::string_view text) {
    if (trim(text).empty())
        fail(full, text.data() == full.data() && text.size() == full.size()
                       ? "empty spec"
                       : "empty inner stage after ':'");

    // Split at top-level ':' (a ':' not inside parentheses).
    int depth = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '(') {
            ++depth;
        } else if (c == ')') {
            if (--depth < 0) fail(full, "unbalanced ')'");
        } else if (c == ':' && depth == 0) {
            SchedulerSpec outer = parse_stage(full, text.substr(0, i));
            outer.set_inner(parse_spec(full, text.substr(i + 1)));
            return outer;
        }
    }
    if (depth != 0) fail(full, "unbalanced '('");
    return parse_stage(full, text);
}

} // namespace

SchedulerSpec SchedulerSpec::parse(std::string_view text) {
    return parse_spec(text, text);
}

void SchedulerSpec::add_option(std::string key, std::string value) {
    options_.emplace_back(std::move(key), std::move(value));
}

const std::string* SchedulerSpec::option(std::string_view key) const {
    for (const auto& [k, v] : options_)
        if (k == key) return &v;
    return nullptr;
}

void SchedulerSpec::set_inner(SchedulerSpec inner) {
    inner_.clear();
    inner_.push_back(std::move(inner));
}

std::string SchedulerSpec::canonical() const {
    std::string out = name_;
    if (!options_.empty()) {
        out += '(';
        for (std::size_t i = 0; i < options_.size(); ++i) {
            if (i != 0) out += ',';
            out += options_[i].first;
            out += '=';
            out += options_[i].second;
        }
        out += ')';
    }
    if (has_inner()) {
        out += ':';
        out += inner().canonical();
    }
    return out;
}

bool SchedulerSpec::operator==(const SchedulerSpec& other) const {
    return name_ == other.name_ && options_ == other.options_ &&
           inner_ == other.inner_;
}

void require_no_options(const SchedulerSpec& spec, std::string_view kind) {
    if (!spec.options().empty())
        throw std::invalid_argument(
            std::string(kind) + " '" + spec.canonical() + "': '" +
            spec.name() + "' takes no options, got '" +
            spec.options().front().first + "'");
}

void require_only_options(const SchedulerSpec& spec,
                          std::initializer_list<std::string_view> allowed,
                          std::string_view kind) {
    for (const auto& [key, value] : spec.options()) {
        bool ok = false;
        for (std::string_view a : allowed) ok = ok || key == a;
        if (!ok)
            throw std::invalid_argument(std::string(kind) + " '" +
                                        spec.canonical() +
                                        "': unknown option '" + key +
                                        "' for '" + spec.name() + "'");
    }
}

long require_int_option(const SchedulerSpec& spec, std::string_view key,
                        long lo, long hi, std::string_view kind) {
    const std::string* text = spec.option(key);
    long value = 0;
    if (text != nullptr && util::parse_whole(*text, value) && value >= lo &&
        value <= hi)
        return value;
    const std::string range = "an integer in [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]";
    throw std::invalid_argument(
        std::string(kind) + " '" + spec.canonical() + "': " +
        (text == nullptr ? "'" + spec.name() + "' needs option '" +
                               std::string(key) + "', " + range
                         : std::string(key) + " '" + *text + "' is not " +
                               range));
}

std::string detail::closest_name(std::string_view name,
                                 const std::vector<std::string>& candidates) {
    const auto lower = [](std::string_view s) {
        std::string out(s);
        for (char& c : out)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        return out;
    };
    // Levenshtein distance, one row at a time; the cutoff allows one edit
    // per three characters, but always at least two.
    const std::string a = lower(name);
    std::string best;
    std::size_t best_dist = std::max<std::size_t>(2, a.size() / 3) + 1;
    for (const auto& candidate : candidates) {
        const std::string b = lower(candidate);
        std::vector<std::size_t> row(b.size() + 1);
        for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
        for (std::size_t i = 1; i <= a.size(); ++i) {
            std::size_t diag = std::exchange(row[0], i); // d(i-1, j-1)
            for (std::size_t j = 1; j <= b.size(); ++j) {
                const std::size_t subst = diag + (a[i - 1] != b[j - 1]);
                diag = std::exchange(
                    row[j], std::min({row[j] + 1, row[j - 1] + 1, subst}));
            }
        }
        if (row[b.size()] < best_dist) {
            best = candidate;
            best_dist = row[b.size()];
        }
    }
    return best;
}

} // namespace volsched::api
