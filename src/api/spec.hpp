#pragma once
/// \file spec.hpp
/// The scheduler spec-string grammar of the public facade:
///
///   spec  := stage (":" stage)*          outermost stage first
///   stage := name [ "(" kv ("," kv)* ")" ]
///   kv    := key "=" value
///
/// `name`, `key` and `value` may contain any character except the
/// structural ones (':', '(', ')', ',', '='); surrounding whitespace is
/// trimmed.  Examples that parse:
///
///   "emct*"                 one stage, no options
///   "thr50:emct"            wrapper stage "thr50" around inner "emct"
///   "thr(percent=50):emct"  the same wrapper in key=value form
///   "thr25:thr50:emct"      wrappers nest arbitrarily deep
///
/// A parsed spec round-trips through canonical(): parse(s).canonical()
/// parses back to an equal spec (shorthand names like "thr50" are kept
/// verbatim; the registry, not the parser, knows how to expand them).

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace volsched::api {

/// True for the characters the spec grammar reserves (':', '(', ')', ',',
/// '='): they cannot appear in stage names, option keys or values — nor,
/// therefore, in registered scheduler names.
bool is_spec_structural_char(char c) noexcept;

/// One parsed scheduler spec stage plus its (optional) inner stage chain.
class SchedulerSpec {
public:
    SchedulerSpec() = default;
    explicit SchedulerSpec(std::string name) : name_(std::move(name)) {}

    /// Parses the full grammar; throws std::invalid_argument with a
    /// position-annotated message on malformed input (empty stage name,
    /// unbalanced parens, missing '=', duplicate key, ...).
    static SchedulerSpec parse(std::string_view text);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    /// Options in declaration order (duplicates are rejected at parse time).
    [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
    options() const noexcept {
        return options_;
    }
    void add_option(std::string key, std::string value);

    /// Pointer to the value for `key`, or nullptr when absent.
    [[nodiscard]] const std::string* option(std::string_view key) const;

    [[nodiscard]] bool has_inner() const noexcept { return !inner_.empty(); }
    /// Pre: has_inner().
    [[nodiscard]] const SchedulerSpec& inner() const { return inner_.front(); }
    void set_inner(SchedulerSpec inner);

    /// Canonical textual form; parse(x).canonical() round-trips.
    [[nodiscard]] std::string canonical() const;

    bool operator==(const SchedulerSpec& other) const;

private:
    std::string name_;
    std::vector<std::pair<std::string, std::string>> options_;
    std::vector<SchedulerSpec> inner_; // 0 or 1 elements (vector: incomplete
                                       // element type is allowed, keeps the
                                       // class copyable)
};

/// Factory-side option validation shared by the spec-driven registries
/// (scheduler and checkpoint); `kind` labels diagnostics, e.g. "scheduler
/// spec" or "checkpoint spec".  The registries wrap the first two with
/// their own fixed label (api::require_no_options, ckpt::require_no_options,
/// ...).
void require_no_options(const SchedulerSpec& spec, std::string_view kind);
void require_only_options(const SchedulerSpec& spec,
                          std::initializer_list<std::string_view> allowed,
                          std::string_view kind);

/// The value of option `key`, which must be present and a whole decimal
/// integer in [lo, hi], read by util::parse_whole: no '+', no locale forms.
/// Throws std::invalid_argument otherwise.
long require_int_option(const SchedulerSpec& spec, std::string_view key,
                        long lo, long hi, std::string_view kind);

} // namespace volsched::api
