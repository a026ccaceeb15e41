#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "util/cli.hpp"

namespace volsched::util::json {

namespace {

[[noreturn]] void bad(const std::string& what) {
    throw std::invalid_argument("json: " + what);
}

/// The whole number token as a T, or bad() when it is not an integer or
/// does not fit T (std::from_chars never wraps).
template <typename T>
T parse_integer(const std::string& token, const char* what) {
    T v = 0;
    if (!parse_whole(token, v)) bad(std::string(what) + ": " + token);
    return v;
}

} // namespace

std::string escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                // \u00XX by hand: keeps the canonical writers entirely
                // printf-free (c < 0x20, so the high byte is always 00).
                constexpr char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[c >> 4];
                out += hex[c & 0xF];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string number(double v) {
    // JSON has no nan/inf tokens; refuse at the write site so a bad value
    // fails the run that produced it, not a later parse of its output.
    if (!std::isfinite(v)) bad("non-finite number cannot be serialized");
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    if (ec != std::errc{}) bad("number formatting failed");
    return std::string(buf, end);
}

bool Value::as_bool() const {
    if (kind_ != Kind::Bool) bad("not a bool");
    return bool_;
}

double Value::as_double() const {
    if (kind_ != Kind::Number) bad("not a number");
    // std::from_chars, not strtod: the latter honors the global LC_NUMERIC
    // locale, which would break record parsing in comma-decimal hosts.
    double v = 0.0;
    if (!parse_whole(scalar_, v)) bad("malformed number");
    return v;
}

int Value::as_int() const {
    if (kind_ != Kind::Number) bad("not a number");
    return parse_integer<int>(scalar_, "not an int");
}

long long Value::as_i64() const {
    if (kind_ != Kind::Number) bad("not a number");
    return parse_integer<long long>(scalar_, "not a 64-bit integer");
}

std::uint64_t Value::as_u64() const {
    if (kind_ != Kind::Number) bad("not a number");
    return parse_integer<std::uint64_t>(scalar_,
                                        "not an unsigned 64-bit integer");
}

const std::string& Value::as_string() const {
    if (kind_ != Kind::String) bad("not a string");
    return scalar_;
}

const std::vector<Value>& Value::items() const {
    if (kind_ != Kind::Array) bad("not an array");
    return items_;
}

const Value* Value::find(std::string_view key) const {
    if (kind_ != Kind::Object) bad("not an object");
    for (const auto& [k, v] : members_)
        if (k == key) return &v;
    return nullptr;
}

const Value& Value::at(std::string_view key) const {
    if (const Value* v = find(key)) return *v;
    bad("missing key '" + std::string(key) + "'");
}

/// Strict single-pass recursive-descent parser.
class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value run() {
        Value v = value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        bad(what + " at byte " + std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool literal(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    Value value() {
        // The campaign formats nest three levels; anything deeper is not
        // ours.  The cap turns adversarially nested input into the loud
        // exception the header promises instead of a stack overflow.
        if (++depth_ > 32) fail("nesting too deep");
        skip_ws();
        Value v;
        switch (peek()) {
        case '{': v = object(); break;
        case '[': v = array(); break;
        case '"': v = string_value(); break;
        case 't':
        case 'f': v = bool_value(); break;
        case 'n':
            if (!literal("null")) fail("bad literal");
            break;
        default: v = number_value(); break;
        }
        --depth_;
        return v;
    }

    Value object() {
        expect('{');
        Value v;
        v.kind_ = Value::Kind::Object;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            v.members_.emplace_back(std::move(key), value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value array() {
        expect('[');
        Value v;
        v.kind_ = Value::Kind::Array;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.items_.push_back(value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    Value bool_value() {
        Value v;
        v.kind_ = Value::Kind::Bool;
        if (literal("true")) v.bool_ = true;
        else if (literal("false")) v.bool_ = false;
        else fail("bad literal");
        return v;
    }

    Value string_value() {
        Value v;
        v.kind_ = Value::Kind::String;
        v.scalar_ = parse_string();
        return v;
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            const char c = peek();
            ++pos_;
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            const char e = peek();
            ++pos_;
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                unsigned code = 0;
                const auto* first = text_.data() + pos_;
                const auto [end, ec] = std::from_chars(first, first + 4, code, 16);
                if (ec != std::errc{} || end != first + 4)
                    fail("bad \\u escape");
                pos_ += 4;
                // The sinks only emit \u00XX; decode the Latin-1 subset and
                // reject anything that would need surrogate handling.
                if (code > 0xFF) fail("unsupported \\u escape > 0xFF");
                out += static_cast<char>(code);
                break;
            }
            default: fail("bad escape");
            }
        }
    }

    Value number_value() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        auto digits = [&] {
            std::size_t n = 0;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9') {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (digits() == 0) fail("bad number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0) fail("bad number");
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0) fail("bad number");
        }
        Value v;
        v.kind_ = Value::Kind::Number;
        v.scalar_ = std::string(text_.substr(start, pos_ - start));
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

Value Value::parse(std::string_view text) { return Parser(text).run(); }

} // namespace volsched::util::json
