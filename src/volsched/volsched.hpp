#pragma once
/// \file volsched.hpp
/// Umbrella header of the volsched public API.  One include gives you:
///
///  - the scheduler registry + spec grammar  (api/registry.hpp, api/spec.hpp)
///  - checkpoint/restart policies + registry (ckpt/)
///  - the fluent Simulation builder          (api/simulation_builder.hpp)
///  - the fluent Experiment builder          (api/experiment_builder.hpp)
///  - sharded, resumable campaigns + sinks   (api/campaign_builder.hpp,
///                                            exp/campaign.hpp, exp/sink.hpp)
///  - the curated paper name lists           (core/factory.hpp)
///  - the simulation engine and platform     (sim/engine.hpp)
///  - availability: Markov chains, chain generators, realized RLE traces,
///    trace replay and empirical fitting     (markov/, trace/)
///  - experiment scenarios, sweeps, reports  (exp/)
///  - the off-line clairvoyant toolkit       (offline/)
///  - observability: metric registry, sim-time tracer, campaign
///    heartbeat                              (obs/, exp/status.hpp)
///  - CLI / RNG / table utilities            (util/)
///
/// Typical use (see examples/quickstart.cpp and API.md):
///
///   #include "volsched/volsched.hpp"
///   using namespace volsched;
///
///   auto simulation = sim::Simulation::builder()
///                         .platform(pf).markov(chains).seed(42).build();
///   auto sched = api::SchedulerRegistry::instance().make("thr50:emct");
///   auto metrics = simulation.run(*sched);

#include "api/campaign_builder.hpp"
#include "api/experiment_builder.hpp"
#include "api/registry.hpp"
#include "api/simulation_builder.hpp"
#include "api/spec.hpp"

#include "core/factory.hpp"

#include "ckpt/policies.hpp"
#include "ckpt/policy.hpp"
#include "ckpt/registry.hpp"

#include "sim/action_trace.hpp"
#include "sim/engine.hpp"
#include "sim/events.hpp"
#include "sim/metrics.hpp"
#include "sim/metrics_io.hpp"
#include "sim/observer.hpp"
#include "sim/platform.hpp"
#include "sim/scheduler.hpp"
#include "sim/timeline.hpp"

#include "markov/availability.hpp"
#include "markov/chain.hpp"
#include "markov/expectation.hpp"
#include "markov/gen.hpp"
#include "markov/io.hpp"
#include "markov/realized_trace.hpp"

#include "trace/empirical.hpp"
#include "trace/replay.hpp"
#include "trace/semi_markov.hpp"
#include "trace/sojourn.hpp"

#include "exp/campaign.hpp"
#include "exp/dfb.hpp"
#include "exp/index_sink.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/shape.hpp"
#include "exp/sink.hpp"
#include "exp/status.hpp"
#include "exp/sweep.hpp"

#include "obs/registry.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"

#include "offline/bounds.hpp"
#include "offline/exact.hpp"
#include "offline/instance.hpp"
#include "offline/mct.hpp"
#include "offline/render.hpp"
#include "offline/sat.hpp"
#include "offline/schedule.hpp"

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
