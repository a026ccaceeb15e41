#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace volsched::util {

std::vector<std::string> split_list(std::string_view text, char sep) {
    std::vector<std::string> out;
    std::string current;
    int parens = 0;
    for (char c : text) {
        if (c == '(') ++parens;
        else if (c == ')' && parens > 0) --parens;
        if (c == sep && parens == 0) {
            if (!current.empty()) out.push_back(current);
            current.clear();
        } else if (c != ' ' && c != '\t') {
            current += c;
        }
    }
    if (!current.empty()) out.push_back(current);
    return out;
}

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Cli::add_int(const std::string& name, long long def,
                  const std::string& help) {
    options_[name] = {Kind::Int, help, std::to_string(def), std::to_string(def)};
}

namespace {

/// Shortest round-trip rendering, always '.'-decimal — std::to_chars is
/// locale-independent where "%g" follows LC_NUMERIC.
std::string render_double(double v) {
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc{} ? std::string(buf, end) : std::string("?");
}

} // namespace

void Cli::add_double(const std::string& name, double def,
                     const std::string& help) {
    const std::string rendered = render_double(def);
    options_[name] = {Kind::Double, help, rendered, rendered};
}

void Cli::add_string(const std::string& name, std::string def,
                     const std::string& help) {
    options_[name] = {Kind::String, help, def, def};
}

void Cli::add_flag(const std::string& name, const std::string& help) {
    options_[name] = {Kind::Flag, help, "0", "0"};
}

Cli::Option& Cli::find(const std::string& name, Kind kind) {
    auto it = options_.find(name);
    if (it == options_.end())
        throw std::logic_error("Cli: unknown option --" + name);
    if (it->second.kind != kind)
        throw std::logic_error("Cli: type mismatch for --" + name);
    return it->second;
}

const Cli::Option& Cli::find(const std::string& name, Kind kind) const {
    return const_cast<Cli*>(this)->find(name, kind);
}

bool Cli::parse(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(help().c_str(), stdout);
            exit_code_ = 0;
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            std::fprintf(stderr, "%s: unexpected positional argument '%s'\n",
                         program_.c_str(), arg.c_str());
            exit_code_ = 2;
            return false;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        if (auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        auto it = options_.find(name);
        if (it == options_.end()) {
            std::fprintf(stderr, "%s: unknown option --%s\n", program_.c_str(),
                         name.c_str());
            exit_code_ = 2;
            return false;
        }
        Option& opt = it->second;
        if (opt.kind == Kind::Flag) {
            // Only values get_flag reads: "--timeline=on" must not run as
            // if the flag were unset.
            if (has_value && value != "1" && value != "true" &&
                value != "yes" && value != "0" && value != "false" &&
                value != "no") {
                std::fprintf(stderr,
                             "%s: flag --%s wants 1/true/yes or 0/false/no, "
                             "got '%s'\n",
                             program_.c_str(), name.c_str(), value.c_str());
                exit_code_ = 2;
                return false;
            }
            opt.value = has_value ? value : "1";
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: option --%s requires a value\n",
                             program_.c_str(), name.c_str());
                exit_code_ = 2;
                return false;
            }
            value = argv[++i];
        }
        // Numeric options must consume the whole token: "5x" or "0xC0FFEE"
        // silently prefix-parsing to a different experiment is worse than
        // an error.
        if (opt.kind != Kind::String) {
            bool ok;
            if (opt.kind == Kind::Int) {
                long long parsed;
                ok = parse_whole(value, parsed);
            } else {
                double parsed;
                ok = parse_whole(value, parsed);
            }
            if (!ok) {
                std::fprintf(stderr,
                             "%s: option --%s wants %s value, got '%s'\n",
                             program_.c_str(), name.c_str(),
                             opt.kind == Kind::Int ? "an integer"
                                                   : "a numeric",
                             value.c_str());
                exit_code_ = 2;
                return false;
            }
        }
        opt.value = value;
    }
    return true;
}

long long Cli::get_int(const std::string& name) const {
    long long out = 0;
    parse_whole(find(name, Kind::Int).value, out);
    return out;
}

double Cli::get_double(const std::string& name) const {
    double out = 0.0;
    parse_whole(find(name, Kind::Double).value, out);
    return out;
}

const std::string& Cli::get_string(const std::string& name) const {
    return find(name, Kind::String).value;
}

bool Cli::get_flag(const std::string& name) const {
    const auto& v = find(name, Kind::Flag).value;
    return v == "1" || v == "true" || v == "yes";
}

std::string Cli::help() const {
    std::ostringstream os;
    os << program_ << " — " << description_ << "\n\noptions:\n";
    for (const auto& [name, opt] : options_) {
        os << "  --" << name;
        if (opt.kind != Kind::Flag) os << " <value>";
        os << "\n      " << opt.help;
        if (opt.kind != Kind::Flag) os << " (default: " << opt.def << ")";
        os << '\n';
    }
    os << "  --help\n      show this message\n";
    return os.str();
}

} // namespace volsched::util
