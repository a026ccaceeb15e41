#include "api/registry.hpp"

#include <stdexcept>

namespace volsched::api {

// Force-link anchors of the registration TUs that live inside the volsched
// static library (greedy, random, extension heuristics).  Referencing them
// here makes the linker pull those archive members — and with them their
// self-registration statics — into every binary that uses the registry.
namespace detail {
void scheduler_tu_anchor_greedy();
void scheduler_tu_anchor_random();
void scheduler_tu_anchor_extensions();
} // namespace detail

SchedulerRegistry& SchedulerRegistry::instance() {
    static SchedulerRegistry registry;
    static const bool anchors [[maybe_unused]] =
        (detail::scheduler_tu_anchor_greedy(),
         detail::scheduler_tu_anchor_random(),
         detail::scheduler_tu_anchor_extensions(), true);
    return registry;
}

std::unique_ptr<sim::Scheduler>
SchedulerRegistry::make(const std::string& spec_text) const {
    return make(SchedulerSpec::parse(spec_text));
}

std::unique_ptr<sim::Scheduler>
SchedulerRegistry::make(const SchedulerSpec& spec) const {
    const Resolved resolved = resolve(spec);
    const SchedulerInfo& info = resolved.info;
    if (info.takes_inner && !spec.has_inner())
        reject(spec, "'" + info.name +
                         "' wraps another heuristic and needs an inner "
                         "stage, e.g. '" +
                         spec.canonical() + ":emct'");
    if (!info.takes_inner && spec.has_inner())
        reject(spec, "'" + info.name + "' does not accept an inner stage");
    auto sched = info.factory(resolved.spec, *this);
    if (!sched)
        throw std::logic_error("scheduler factory for '" + info.name +
                               "' returned null");
    return sched;
}

void SchedulerRegistry::validate(const std::string& spec_text) const {
    // Instantiation is cheap for every registered scheduler, and running
    // the real factory exercises option validation too.
    (void)make(spec_text);
}

void require_no_options(const SchedulerSpec& spec) {
    require_no_options(spec, "scheduler spec");
}

void require_only_options(const SchedulerSpec& spec,
                          std::initializer_list<std::string_view> allowed) {
    require_only_options(spec, allowed, "scheduler spec");
}

} // namespace volsched::api
