#pragma once
/// \file simulation_builder.hpp
/// Fluent construction of sim::Simulation — one entry point over the three
/// availability sources (Markov chains, recorded-trace replay, empirical
/// fit-and-replay) with validation and diagnostic error messages.  The
/// built Simulation is bit-identical to one assembled through the raw
/// constructor with the same ingredients.
///
///   auto simulation = sim::Simulation::builder()
///                         .platform(pf)
///                         .markov(chains)       // chains double as beliefs
///                         .iterations(10)
///                         .tasks_per_iteration(10)
///                         .seed(42)
///                         .build();
///
/// Availability sources (exactly one per build):
///   .markov(chains)      — the paper's setting: Markov availability, the
///                          same chains as the heuristics' beliefs
///   .replay(traces)      — replay recorded traces; uninformed by default
///   .empirical(traces)   — replay recorded traces with per-trace Markov
///                          beliefs fitted from the trace itself
///   .models(models)      — any AvailabilityModel set; uninformed default
/// followed optionally by .beliefs(chains) to override the default belief
/// set or .uninformed() to drop it.
///
/// Realization control: .realized(traces) attaches a pre-sampled
/// markov::RealizedTraces snapshot (shared availability sampling across
/// builds).  It does not change results: the realization is a function of
/// the seed only.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/policy.hpp"
#include "markov/availability.hpp"
#include "markov/chain.hpp"
#include "sim/engine.hpp"
#include "trace/replay.hpp"

namespace volsched::api {

/// One availability source: per-processor models plus the belief chains the
/// source implies (may be empty for uninformed sources).
struct AvailabilitySource {
    std::vector<std::unique_ptr<markov::AvailabilityModel>> models;
    std::vector<markov::MarkovChain> default_beliefs;
    std::string origin; ///< "markov" / "replay" / "empirical" / "models"

    /// Markov availability drawn from `chains`, with the same chains as the
    /// default beliefs (the paper's experimental setting).
    static AvailabilitySource
    markov(std::vector<markov::MarkovChain> chains,
           markov::InitialState init = markov::InitialState::AlwaysUp);

    /// Replays recorded traces verbatim; no default beliefs (uninformed).
    static AvailabilitySource
    replay(std::vector<trace::RecordedTrace> traces,
           trace::ReplayAvailability::EndPolicy policy =
               trace::ReplayAvailability::EndPolicy::Loop);

    /// Replays recorded traces with per-trace maximum-likelihood Markov
    /// fits as the default beliefs — the trace-replay workflow of the
    /// paper's Section 8 (trace/empirical.hpp).
    static AvailabilitySource
    empirical(std::vector<trace::RecordedTrace> traces,
              trace::ReplayAvailability::EndPolicy policy =
                  trace::ReplayAvailability::EndPolicy::Loop);

    /// Arbitrary models; no default beliefs.
    static AvailabilitySource
    models_from(std::vector<std::unique_ptr<markov::AvailabilityModel>> models);
};

/// Fluent builder for sim::Simulation.  Single-use: build() consumes the
/// collected state.  Throws std::invalid_argument with a diagnostic message
/// naming the missing/mismatched ingredient on invalid input.
class SimulationBuilder {
public:
    SimulationBuilder& platform(sim::Platform pf);

    /// Sets the availability source (exactly one per build).
    SimulationBuilder& availability(AvailabilitySource source);

    // Sugar for the three canonical sources + raw models.
    SimulationBuilder&
    markov(std::vector<markov::MarkovChain> chains,
           markov::InitialState init = markov::InitialState::AlwaysUp);
    SimulationBuilder&
    replay(std::vector<trace::RecordedTrace> traces,
           trace::ReplayAvailability::EndPolicy policy =
               trace::ReplayAvailability::EndPolicy::Loop);
    SimulationBuilder&
    empirical(std::vector<trace::RecordedTrace> traces,
              trace::ReplayAvailability::EndPolicy policy =
                  trace::ReplayAvailability::EndPolicy::Loop);
    SimulationBuilder&
    models(std::vector<std::unique_ptr<markov::AvailabilityModel>> models);

    /// Overrides the source's default belief chains (size must match the
    /// platform at build time).
    SimulationBuilder& beliefs(std::vector<markov::MarkovChain> chains);
    /// Drops all beliefs: heuristics run uninformed (ProcView::belief null).
    SimulationBuilder& uninformed();

    /// Replaces the whole engine config; the per-knob setters below tweak
    /// the current one and may be freely mixed (last write wins).
    SimulationBuilder& config(sim::EngineConfig cfg);
    SimulationBuilder& iterations(int n);
    SimulationBuilder& tasks_per_iteration(int n);
    SimulationBuilder& replica_cap(int n);
    SimulationBuilder& max_slots(long long n);
    SimulationBuilder& plan_class(sim::SchedulerClass c);
    SimulationBuilder& audit(bool on = true);
    /// Attaches an observer to every run (sim/observer.hpp; not owned,
    /// non-null): a sim::EventLog, sim::Timeline, sim::ActionTrace, an
    /// obs::TraceRecorder (Perfetto-loadable Chrome trace JSON), or any
    /// other EngineObserver.  Observer-only — attaching one leaves every
    /// other output byte-identical.
    SimulationBuilder& observe(sim::EngineObserver* observer);

    /// Attaches a checkpoint/restart policy by registry spec — "none",
    /// "periodic20", "daly", "risk(percent=25)", ... (ckpt/registry.hpp;
    /// `volsched_sim --list-checkpoints` prints all names).  The built
    /// Simulation owns the resolved policy.  With "none" the run is
    /// bit-identical to not calling this at all.
    SimulationBuilder& checkpoint(const std::string& spec);
    /// Attaches an already-built policy (shared across simulations).
    SimulationBuilder& checkpoint(std::shared_ptr<const ckpt::CheckpointPolicy> policy);
    /// Master transfer slot-units one checkpoint upload costs (default 1;
    /// zero commits instantly).
    SimulationBuilder& checkpoint_cost(int slots);

    SimulationBuilder& seed(std::uint64_t s);

    /// Attaches a pre-sampled realization snapshot, sharing availability
    /// sampling across several Simulations (e.g. objective variants over
    /// one instance).  The snapshot must have one trace per processor and
    /// must have been realized from the same seed as the built simulation —
    /// both are validated at build() time, because a realization that does
    /// not match the seed would silently break the determinism contract.
    SimulationBuilder& realized(std::shared_ptr<markov::RealizedTraces> traces);

    /// Selects the stepping core (EngineConfig::event_driven, default on):
    /// `false` runs the reference slot loop.  Results are bit-identical
    /// either way; sugar over config() for core-agreement checks.
    SimulationBuilder& event_driven(bool on = true);

    /// Validates and builds.  The result bit-matches the raw
    /// sim::Simulation constructor fed the same platform, models, beliefs,
    /// config and seed.
    [[nodiscard]] sim::Simulation build();

private:
    std::optional<sim::Platform> platform_;
    std::optional<AvailabilitySource> source_;
    std::optional<std::vector<markov::MarkovChain>> belief_override_;
    std::shared_ptr<markov::RealizedTraces> realized_;
    std::shared_ptr<const ckpt::CheckpointPolicy> checkpoint_;
    bool uninformed_ = false;
    sim::EngineConfig config_{};
    std::uint64_t seed_ = 0;
    bool built_ = false;
};

} // namespace volsched::api
