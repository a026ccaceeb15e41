#pragma once
/// \file registry.hpp
/// Self-registering scheduler registry — the open replacement for the
/// closed if/else factory.  Every heuristic registers itself from its own
/// translation unit with VOLSCHED_REGISTER_SCHEDULER; the registry resolves
/// spec strings (see spec.hpp for the grammar) into scheduler instances and
/// powers `--list-heuristics` and did-you-mean error messages.  The table,
/// the shorthand and the diagnostics are SpecRegistry's (spec_registry.hpp),
/// shared with the checkpoint-policy registry.
///
/// Registering a new heuristic from application code:
///
///   VOLSCHED_REGISTER_SCHEDULER(my_sched, {
///       "mine", "my one-line description",
///       [](const volsched::api::SchedulerSpec&,
///          const volsched::api::SchedulerRegistry&) {
///           return std::make_unique<MyScheduler>();
///       }});
///
/// Wrapper families (like the threshold-exclusion family "thr") set
/// `takes_inner` and build their inner scheduler through the registry
/// reference they receive, and may declare a `shorthand_option` so that a
/// trailing integer is accepted as sugar: "thr50:emct" resolves exactly
/// like "thr(percent=50):emct".
///
/// Note on static libraries: the linker only pulls an archive member into
/// the final binary when something references a symbol in it, so a TU that
/// *only* self-registers would be silently dropped.  TUs compiled into the
/// `volsched` library therefore also place VOLSCHED_SCHEDULER_TU_ANCHOR and
/// are force-linked from the registry itself; TUs compiled directly into an
/// executable need no anchor.

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

#include "api/spec.hpp"
#include "api/spec_registry.hpp"
#include "sim/scheduler.hpp"

namespace volsched::api {

class SchedulerRegistry;

/// One registered scheduler (or scheduler family).
struct SchedulerInfo {
    using Factory = std::function<std::unique_ptr<sim::Scheduler>(
        const SchedulerSpec&, const SchedulerRegistry&)>;

    SchedulerInfo() = default;
    SchedulerInfo(std::string name_, std::string description_,
                  Factory factory_, bool takes_inner_ = false,
                  std::string shorthand_option_ = {})
        : name(std::move(name_)),
          description(std::move(description_)),
          factory(std::move(factory_)),
          takes_inner(takes_inner_),
          shorthand_option(std::move(shorthand_option_)) {}

    /// Canonical spec-stage name ("emct*", "random2w", "thr", ...).
    std::string name;
    /// One-line description shown by `volsched_sim --list-heuristics`.
    std::string description;
    /// Builds an instance for a resolved spec stage.  Wrapper families
    /// construct their inner scheduler via the registry reference.
    Factory factory;
    /// Whether specs may (and must) supply an inner stage ("thr...:emct").
    bool takes_inner = false;
    /// When non-empty, "<name><digits>" is accepted as shorthand for
    /// "<name>(<shorthand_option>=<digits>)".
    std::string shorthand_option;
};

/// Process-wide registry of scheduler factories; add(), erase(),
/// contains(), entries(), names() and suggestion_for() come from
/// SpecRegistry.
class SchedulerRegistry : public SpecRegistry<SchedulerInfo> {
public:
    static SchedulerRegistry& instance();

    /// Resolves and instantiates a spec string.  Throws
    /// std::invalid_argument for grammar errors, unknown names (with a
    /// did-you-mean suggestion when a registered name is close), a wrapper
    /// without an inner stage, or an inner stage on a non-wrapper.
    [[nodiscard]] std::unique_ptr<sim::Scheduler>
    make(const std::string& spec_text) const;
    [[nodiscard]] std::unique_ptr<sim::Scheduler>
    make(const SchedulerSpec& spec) const;

    /// Parses, resolves and test-instantiates the spec (running the real
    /// factory is what exercises option validation), discarding the
    /// instance; throws exactly like make().  Keep factories cheap —
    /// callers such as ExperimentBuilder validate specs eagerly.
    void validate(const std::string& spec_text) const;

private:
    SchedulerRegistry()
        : SpecRegistry({"scheduler spec", "heuristic", "--list-heuristics"}) {}
};

/// Factory-side option validation helpers.  `require_no_options` is for
/// schedulers that take none; `require_only_options` rejects any option key
/// outside the allowed set (so typos like "thr(prcent=50)" fail loudly).
void require_no_options(const SchedulerSpec& spec);
void require_only_options(const SchedulerSpec& spec,
                          std::initializer_list<std::string_view> allowed);

} // namespace volsched::api

/// Registers a scheduler at static-initialization time.  Use at namespace
/// scope in the scheduler's own translation unit; `tag` is any identifier
/// unique within the TU.
#define VOLSCHED_REGISTER_SCHEDULER(tag, ...)                                  \
    static const bool volsched_scheduler_registered_##tag [[maybe_unused]] =   \
        ::volsched::api::detail::add_at_static_init<                           \
            ::volsched::api::SchedulerRegistry>(                               \
            ::volsched::api::SchedulerInfo __VA_ARGS__)

/// Force-link anchor for registration TUs that live inside the volsched
/// static library (see the file comment).  Use once per such TU, at global
/// namespace scope, and reference the anchor from registry.cpp.
#define VOLSCHED_SCHEDULER_TU_ANCHOR(tag)                                      \
    namespace volsched::api::detail {                                          \
    void scheduler_tu_anchor_##tag() {}                                        \
    }
