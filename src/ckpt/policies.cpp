/// \file policies.cpp
/// The built-in checkpoint policies — `none`, `periodic(k)`, `daly`, and
/// `risk(percent)` — each self-registering with the checkpoint registry
/// from this translation unit (see registry.hpp for the mechanism).
///
/// All four are pure functions of the CheckpointView: no internal state, no
/// RNG, so engine determinism is preserved by construction.

#include <cmath>
#include <memory>
#include <string>

#include "ckpt/policies.hpp"
#include "ckpt/registry.hpp"
#include "markov/expectation.hpp"

namespace volsched::ckpt {

namespace {

/// daly_interval for a known mean time to DOWN.
int daly_interval_for(double mttd, int cost) noexcept {
    if (!std::isfinite(mttd)) return 0;
    const double tau =
        std::sqrt(2.0 * static_cast<double>(cost < 1 ? 1 : cost) * mttd);
    const double rounded = std::nearbyint(tau);
    return rounded < 1.0 ? 1 : static_cast<int>(rounded);
}

} // namespace

int daly_interval(const markov::TransitionMatrix& m, int cost) noexcept {
    return daly_interval_for(markov::mean_time_to_down(m), cost);
}

double crash_risk(const markov::TransitionMatrix& m, int remaining) noexcept {
    if (remaining <= 0) return 0.0;
    return 1.0 - markov::p_ud_exact(m, static_cast<unsigned>(remaining));
}

namespace {

/// The paper's model: never checkpoint.  Attaching this policy is
/// bit-identical to attaching no policy at all (pinned by test_ckpt).
class NonePolicy final : public CheckpointPolicy {
public:
    bool should_checkpoint(const CheckpointView&) const override {
        return false;
    }
    long long quiet_horizon(const CheckpointView&) const override {
        return kQuietForever;
    }
    std::string_view name() const override { return "none"; }
};

/// Fixed-interval checkpointing: snapshot after every k compute slots.
class PeriodicPolicy final : public CheckpointPolicy {
public:
    explicit PeriodicPolicy(int k) : k_(k) {}
    bool should_checkpoint(const CheckpointView& v) const override {
        return v.computed >= k_;
    }
    long long quiet_horizon(const CheckpointView& v) const override {
        // Fires exactly when `computed` reaches k_, and `computed` grows by
        // one per advanced slot.
        return v.computed >= k_ ? 0 : static_cast<long long>(k_) - v.computed;
    }
    std::string_view name() const override { return "periodic"; }

private:
    int k_;
};

/// Young/Daly interval from the worker's belief chain: checkpoint after
/// sqrt(2 * C * MTTD) compute slots.  The interval is a pure function of
/// (belief, cost).  The chain solved its MTTD once at construction
/// (MarkovChain::mean_time_to_down), so a decision costs one square root
/// and the policy keeps no state, which is what the determinism contract
/// wants.
class DalyPolicy final : public CheckpointPolicy {
public:
    bool should_checkpoint(const CheckpointView& v) const override {
        if (v.belief == nullptr) return false;
        const int tau =
            daly_interval_for(v.belief->mean_time_to_down(), v.cost);
        return tau > 0 && v.computed >= tau;
    }
    long long quiet_horizon(const CheckpointView& v) const override {
        // The interval is a function of (belief, cost) only, both fixed
        // under arithmetic advancement, so this reduces to the periodic
        // case; tau == 0 (infinite MTTD) never fires.
        if (v.belief == nullptr) return kQuietForever;
        const int tau =
            daly_interval_for(v.belief->mean_time_to_down(), v.cost);
        if (tau <= 0) return kQuietForever;
        return v.computed >= tau ? 0
                                 : static_cast<long long>(tau) - v.computed;
    }
    std::string_view name() const override { return "daly"; }
};

/// Risk threshold: checkpoint as soon as the belief chain's probability of
/// crashing before the task's completion boundary exceeds `percent`/100.
class RiskPolicy final : public CheckpointPolicy {
public:
    explicit RiskPolicy(double threshold) : threshold_(threshold) {}
    bool should_checkpoint(const CheckpointView& v) const override {
        if (v.belief == nullptr) return false;
        return crash_risk(v.belief->matrix(), v.remaining) > threshold_;
    }
    long long quiet_horizon(const CheckpointView& v) const override {
        // crash_risk is non-decreasing in `remaining` (p_ud_exact is
        // non-increasing in the slot count), and advancement only shrinks
        // `remaining`: a view that does not fire now never fires later in
        // the same uninterrupted stretch.
        if (v.belief == nullptr) return kQuietForever;
        return should_checkpoint(v) ? 0 : kQuietForever;
    }
    std::string_view name() const override { return "risk"; }

private:
    double threshold_;
};

} // namespace

} // namespace volsched::ckpt

VOLSCHED_CHECKPOINT_TU_ANCHOR(builtin)

namespace volsched::ckpt {

VOLSCHED_REGISTER_CHECKPOINT(none, {
    "none", "never checkpoint (the paper's crash-lose-everything model)",
    [](const api::SchedulerSpec& spec) -> std::unique_ptr<CheckpointPolicy> {
        require_no_options(spec);
        return std::make_unique<NonePolicy>();
    }});

VOLSCHED_REGISTER_CHECKPOINT(periodic, {
    "periodic",
    "checkpoint after every k compute slots (periodic20, periodic(k=20))",
    [](const api::SchedulerSpec& spec) -> std::unique_ptr<CheckpointPolicy> {
        require_only_options(spec, {"k"});
        const long k = api::require_int_option(spec, "k", 1, 1'000'000'000,
                                               "checkpoint spec");
        return std::make_unique<PeriodicPolicy>(static_cast<int>(k));
    },
    /*shorthand_option=*/"k"});

VOLSCHED_REGISTER_CHECKPOINT(daly, {
    "daly",
    "Young/Daly interval sqrt(2*C*MTTD) from the belief chain's mean time "
    "to DOWN",
    [](const api::SchedulerSpec& spec) -> std::unique_ptr<CheckpointPolicy> {
        require_no_options(spec);
        return std::make_unique<DalyPolicy>();
    }});

VOLSCHED_REGISTER_CHECKPOINT(risk, {
    "risk",
    "checkpoint when P(crash before the task completes) exceeds percent/100 "
    "(risk25, risk(percent=25))",
    [](const api::SchedulerSpec& spec) -> std::unique_ptr<CheckpointPolicy> {
        require_only_options(spec, {"percent"});
        const long percent = api::require_int_option(spec, "percent", 0, 100,
                                                     "checkpoint spec");
        return std::make_unique<RiskPolicy>(static_cast<double>(percent) /
                                            100.0);
    },
    /*shorthand_option=*/"percent"});

} // namespace volsched::ckpt
