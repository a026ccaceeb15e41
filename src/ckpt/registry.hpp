#pragma once
/// \file registry.hpp
/// Self-registering checkpoint-policy registry: api::SpecRegistry
/// (api/spec_registry.hpp) over CheckpointInfo, the implementation the
/// scheduler registry (api/registry.hpp) uses too.  Every policy registers
/// itself from its own translation unit with VOLSCHED_REGISTER_CHECKPOINT
/// (registration TUs inside libvolsched also place
/// VOLSCHED_CHECKPOINT_TU_ANCHOR); the registry resolves spec strings into
/// policy instances, powers `volsched_sim --list-checkpoints`, and emits
/// did-you-mean diagnostics for typos.  Specs use the api/spec grammar, but
/// policies do not nest, so inner stages (":") are rejected.  A
/// `shorthand_option` accepts a trailing integer as sugar: "periodic20"
/// resolves exactly like "periodic(k=20)".

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

#include "api/spec.hpp"
#include "api/spec_registry.hpp"
#include "ckpt/policy.hpp"

namespace volsched::ckpt {

/// One registered checkpoint policy.
struct CheckpointInfo {
    using Factory = std::function<std::unique_ptr<CheckpointPolicy>(
        const api::SchedulerSpec&)>;

    CheckpointInfo() = default;
    CheckpointInfo(std::string name_, std::string description_,
                   Factory factory_, std::string shorthand_option_ = {})
        : name(std::move(name_)),
          description(std::move(description_)),
          factory(std::move(factory_)),
          shorthand_option(std::move(shorthand_option_)) {}

    /// Canonical spec-stage name ("none", "periodic", "daly", "risk").
    std::string name;
    /// One-line description shown by `volsched_sim --list-checkpoints`.
    std::string description;
    /// Builds an instance for a resolved spec stage.
    Factory factory;
    /// When non-empty, "<name><digits>" is accepted as shorthand for
    /// "<name>(<shorthand_option>=<digits>)".
    std::string shorthand_option;
};

/// Process-wide registry of checkpoint-policy factories; add(), erase(),
/// contains(), entries(), names() and suggestion_for() come from
/// api::SpecRegistry.
class CheckpointRegistry : public api::SpecRegistry<CheckpointInfo> {
public:
    static CheckpointRegistry& instance();

    /// Resolves and instantiates a spec string.  Throws
    /// std::invalid_argument for grammar errors, unknown names (with a
    /// did-you-mean suggestion when one is close), or an inner stage.
    [[nodiscard]] std::unique_ptr<CheckpointPolicy>
    make(const std::string& spec_text) const;
    [[nodiscard]] std::unique_ptr<CheckpointPolicy>
    make(const api::SchedulerSpec& spec) const;

    /// Parses, resolves and test-instantiates the spec (running the real
    /// factory exercises option validation), discarding the instance;
    /// throws exactly like make().
    void validate(const std::string& spec_text) const;

private:
    CheckpointRegistry()
        : SpecRegistry({"checkpoint spec", "checkpoint policy",
                        "--list-checkpoints"}) {}
};

/// Factory-side option validation helpers (checkpoint-spec wording of the
/// api/registry.hpp pair).
void require_no_options(const api::SchedulerSpec& spec);
void require_only_options(const api::SchedulerSpec& spec,
                          std::initializer_list<std::string_view> allowed);

} // namespace volsched::ckpt

/// Registers a checkpoint policy at static-initialization time.  Use at
/// namespace scope in the policy's own translation unit; `tag` is any
/// identifier unique within the TU.
#define VOLSCHED_REGISTER_CHECKPOINT(tag, ...)                                 \
    static const bool volsched_checkpoint_registered_##tag [[maybe_unused]] =  \
        ::volsched::api::detail::add_at_static_init<                           \
            ::volsched::ckpt::CheckpointRegistry>(                             \
            ::volsched::ckpt::CheckpointInfo __VA_ARGS__)

/// Force-link anchor for registration TUs inside the volsched static
/// library (see api/registry.hpp for the mechanism).
#define VOLSCHED_CHECKPOINT_TU_ANCHOR(tag)                                     \
    namespace volsched::ckpt::detail {                                         \
    void checkpoint_tu_anchor_##tag() {}                                       \
    }
