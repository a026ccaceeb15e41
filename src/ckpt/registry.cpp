#include "ckpt/registry.hpp"

#include <stdexcept>

namespace volsched::ckpt {

// Force-link anchor of the built-in policy TU (none/periodic/daly/risk);
// referencing it here pulls that archive member — and its self-registration
// statics — into every binary that uses the registry.
namespace detail {
void checkpoint_tu_anchor_builtin();
} // namespace detail

CheckpointRegistry& CheckpointRegistry::instance() {
    static CheckpointRegistry registry;
    static const bool anchors [[maybe_unused]] =
        (detail::checkpoint_tu_anchor_builtin(), true);
    return registry;
}

std::unique_ptr<CheckpointPolicy>
CheckpointRegistry::make(const std::string& spec_text) const {
    return make(api::SchedulerSpec::parse(spec_text));
}

std::unique_ptr<CheckpointPolicy>
CheckpointRegistry::make(const api::SchedulerSpec& spec) const {
    if (spec.has_inner())
        reject(spec, "checkpoint policies do not nest (no ':inner' stages)");
    const Resolved resolved = resolve(spec);
    auto policy = resolved.info.factory(resolved.spec);
    if (!policy)
        throw std::logic_error("checkpoint factory for '" +
                               resolved.info.name + "' returned null");
    return policy;
}

void CheckpointRegistry::validate(const std::string& spec_text) const {
    (void)make(spec_text);
}

void require_no_options(const api::SchedulerSpec& spec) {
    api::require_no_options(spec, "checkpoint spec");
}

void require_only_options(const api::SchedulerSpec& spec,
                          std::initializer_list<std::string_view> allowed) {
    api::require_only_options(spec, allowed, "checkpoint spec");
}

} // namespace volsched::ckpt
