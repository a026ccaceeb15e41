#pragma once
/// \file cli.hpp
/// Tiny command-line argument parser for the tools, benches and examples.
/// Supports `--name value`, `--name=value`, and boolean `--flag` options,
/// with typed getters and automatic `--help` text generation.

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace volsched::util {

/// Splits a separator-joined list, stripping spaces/tabs and dropping blank
/// items ("a, b,,c" -> {"a","b","c"}).  Separators inside parentheses do
/// not split, so scheduler specs with option lists stay whole:
/// "thr(percent=50,fallback=1):emct,mct" -> two specs.  The CLI convention
/// for --heuristics and the integer grid axes.
std::vector<std::string> split_list(std::string_view text, char sep = ',');

/// Whole-token number parse: true when all of `text` is one T, stored in
/// `out`.  std::from_chars never consults the locale and rejects leading
/// whitespace and '+', so "1,5", " 5" or "+5" can't silently become a
/// different experiment under a different LC_NUMERIC.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, out);
    return ec == std::errc{} && ptr == last;
}

/// Declarative option set + parsed values.
///
/// Usage:
///   Cli cli("volsched_campaign run", "run (or resume) one shard");
///   cli.add_int("trials", 3, "trials per scenario");
///   cli.add_flag("quiet", "no progress output");
///   if (!cli.parse(argc, argv)) return cli.exit_code();
///   int trials = cli.get_int("trials");
class Cli {
public:
    Cli(std::string program, std::string description);

    void add_int(const std::string& name, long long def, const std::string& help);
    void add_double(const std::string& name, double def, const std::string& help);
    void add_string(const std::string& name, std::string def, const std::string& help);
    void add_flag(const std::string& name, const std::string& help);

    /// Returns true when execution should continue; false for --help or a
    /// parse error (exit_code() distinguishes the two).
    bool parse(int argc, const char* const* argv);

    [[nodiscard]] long long get_int(const std::string& name) const;
    [[nodiscard]] double get_double(const std::string& name) const;
    [[nodiscard]] const std::string& get_string(const std::string& name) const;
    [[nodiscard]] bool get_flag(const std::string& name) const;

    [[nodiscard]] int exit_code() const noexcept { return exit_code_; }
    [[nodiscard]] std::string help() const;

private:
    enum class Kind { Int, Double, String, Flag };
    struct Option {
        Kind kind;
        std::string help;
        std::string value; // textual current value
        std::string def;   // textual default (for help)
    };

    Option& find(const std::string& name, Kind kind);
    const Option& find(const std::string& name, Kind kind) const;

    std::string program_;
    std::string description_;
    std::map<std::string, Option> options_;
    int exit_code_ = 0;
};

} // namespace volsched::util
