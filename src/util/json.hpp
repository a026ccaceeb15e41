#pragma once
/// \file json.hpp
/// Minimal JSON support for the campaign result streams: canonical writers
/// (stable field order, shortest round-trip numbers, no locale dependence)
/// plus a strict recursive-descent parser.  This is deliberately not a
/// general-purpose JSON library — it covers exactly what the JSONL sinks
/// and campaign manifests emit, and rejects anything malformed loudly so a
/// truncated or hand-edited record cannot be half-read.
///
/// Numbers keep their raw token text, so 64-bit integers (RNG seeds use the
/// full range) survive a round trip exactly instead of being squeezed
/// through a double.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace volsched::util::json {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// added).  Control characters become \u00XX.
std::string escape(std::string_view s);

/// Shortest representation of `v` that parses back to the identical double
/// (std::to_chars); "0" for zero, never locale-dependent.
std::string number(double v);

/// One parsed JSON value.  Object member order is preserved.
class Value {
public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /// Parses exactly one JSON document (trailing garbage rejected).
    /// Throws std::invalid_argument with a byte offset on malformed input.
    static Value parse(std::string_view text);

    [[nodiscard]] Kind kind() const noexcept { return kind_; }
    [[nodiscard]] bool is_object() const noexcept {
        return kind_ == Kind::Object;
    }
    [[nodiscard]] bool is_array() const noexcept {
        return kind_ == Kind::Array;
    }

    /// Typed accessors; throw std::invalid_argument on a kind mismatch or
    /// (for the integer accessors) a non-integral / out-of-range token.
    /// Narrow integer fields read through as_int(), never a cast of
    /// as_i64(), so an out-of-range value throws instead of wrapping.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_double() const;
    [[nodiscard]] int as_int() const;
    [[nodiscard]] long long as_i64() const;
    [[nodiscard]] std::uint64_t as_u64() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const std::vector<Value>& items() const; // array

    /// Object lookup: at() throws on a missing key, find() returns nullptr.
    [[nodiscard]] const Value& at(std::string_view key) const;
    [[nodiscard]] const Value* find(std::string_view key) const;

private:
    friend class Parser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar_; // raw number token, or decoded string
    std::vector<Value> items_;
    std::vector<std::pair<std::string, Value>> members_;
};

} // namespace volsched::util::json
