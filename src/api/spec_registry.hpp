#pragma once
/// \file spec_registry.hpp
/// The one implementation behind both spec-driven registries,
/// api::SchedulerRegistry and ckpt::CheckpointRegistry: the registration
/// checks, the name-sorted table under its mutex, the trailing-integer
/// shorthand ("thr50" == "thr(percent=50)"), the did-you-mean message and
/// the static-initialization guard of the VOLSCHED_REGISTER_* macros.  A
/// derived registry adds instance() with its force-link anchors, make()
/// with its factory signature and inner-stage rules, and validate().
/// `Info` has `name`, `factory` and `shorthand_option` members.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/spec.hpp"

namespace volsched::api {

/// The words a registry's diagnostics use.
struct SpecLabels {
    std::string_view spec; ///< prefixes spec errors: "scheduler spec"
    std::string_view noun; ///< names one entry: "heuristic"
    std::string_view list; ///< the volsched_sim flag that lists all names
};

namespace detail {

/// The first of the sorted `candidates` at the least case-insensitive
/// edit distance from `name`, or "" when none is plausibly a typo of it
/// (api/spec.cpp).
std::string closest_name(std::string_view name,
                         const std::vector<std::string>& candidates);

/// Static-init-safe add() used by the VOLSCHED_REGISTER_* macros: an
/// exception thrown during a namespace-scope registration would escape to
/// std::terminate with no message, so this catches it, prints the
/// diagnostic to stderr, and aborts deliberately.  Always returns true.
template <typename Registry, typename Info>
bool add_at_static_init(Info info) noexcept {
    try {
        Registry::instance().add(std::move(info));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "volsched: fatal error during registration: %s\n",
                     e.what());
        std::abort();
    }
    return true;
}

} // namespace detail

/// Process-wide table of `Info` registrations keyed by spec-stage name.
/// Thread-safe; lookups are case-sensitive, but did-you-mean suggestions
/// are not.
template <typename Info>
class SpecRegistry {
public:
    /// Registers `info`; throws std::invalid_argument on an empty name, a
    /// name containing spec-structural characters, a missing factory, or a
    /// duplicate registration.
    void add(Info info) {
        const auto refuse = [&](const std::string& why) {
            throw std::invalid_argument("cannot register " +
                                        std::string(labels_.noun) + " '" +
                                        info.name + "': " + why);
        };
        if (info.name.empty()) refuse("empty name");
        for (char c : info.name)
            if (is_spec_structural_char(c))
                refuse(std::string("structural character '") + c + "'");
        if (!info.factory) refuse("no factory");
        std::lock_guard lock(mutex_);
        if (!entries_.try_emplace(info.name, info).second)
            refuse("already registered");
    }

    /// Removes a registration (primarily for tests); returns whether the
    /// name was present.
    bool erase(const std::string& name) {
        std::lock_guard lock(mutex_);
        return entries_.erase(name) > 0;
    }

    [[nodiscard]] bool contains(const std::string& name) const {
        std::lock_guard lock(mutex_);
        return entries_.contains(name);
    }

    /// All registered entries, sorted by name.
    [[nodiscard]] std::vector<Info> entries() const {
        std::lock_guard lock(mutex_);
        std::vector<Info> out;
        out.reserve(entries_.size());
        for (const auto& [name, info] : entries_) out.push_back(info);
        return out;
    }

    /// All registered names, sorted.
    [[nodiscard]] std::vector<std::string> names() const {
        std::lock_guard lock(mutex_);
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto& [name, info] : entries_) out.push_back(name);
        return out;
    }

    /// Closest registered name by (case-insensitive) edit distance, or ""
    /// when nothing is close enough to suggest.
    [[nodiscard]] std::string suggestion_for(std::string_view name) const {
        return detail::closest_name(name, names());
    }

protected:
    explicit SpecRegistry(SpecLabels labels) : labels_(labels) {}

    struct Resolved {
        Info info;          // copied: safe against concurrent add()/erase()
        SchedulerSpec spec; // shorthand expanded to its key=value form
    };

    /// The registration `spec` names, a trailing-integer shorthand expanded
    /// into its option.  Throws std::invalid_argument for an unknown name
    /// (with a did-you-mean hint) or an option given both ways.
    [[nodiscard]] Resolved resolve(const SchedulerSpec& spec) const {
        std::unique_lock lock(mutex_);
        const std::string& name = spec.name();
        if (const auto it = entries_.find(name); it != entries_.end())
            return {it->second, spec};
        std::size_t digits = name.size();
        while (digits > 0 &&
               std::isdigit(static_cast<unsigned char>(name[digits - 1])))
            --digits;
        if (digits > 0 && digits < name.size()) {
            const auto it = entries_.find(name.substr(0, digits));
            if (it != entries_.end() && !it->second.shorthand_option.empty()) {
                const std::string& key = it->second.shorthand_option;
                if (spec.option(key) != nullptr)
                    reject(spec, "option '" + key +
                                     "' given both as shorthand and as "
                                     "key=value");
                SchedulerSpec expanded = spec;
                expanded.set_name(it->first);
                expanded.add_option(key, name.substr(digits));
                return {it->second, std::move(expanded)};
            }
        }
        lock.unlock();
        std::string message =
            "unknown " + std::string(labels_.noun) + " '" + name + "'";
        if (const std::string hint = suggestion_for(name); !hint.empty())
            message += "; did you mean '" + hint + "'?";
        throw std::invalid_argument(message + "  (volsched_sim " +
                                    std::string(labels_.list) +
                                    " prints all names)");
    }

    /// Throws std::invalid_argument("<labels.spec> '<spec>': <what>").
    [[noreturn]] void reject(const SchedulerSpec& spec,
                             const std::string& what) const {
        throw std::invalid_argument(std::string(labels_.spec) + " '" +
                                    spec.canonical() + "': " + what);
    }

private:
    SpecLabels labels_;
    mutable std::mutex mutex_;
    std::map<std::string, Info> entries_;
};

} // namespace volsched::api
