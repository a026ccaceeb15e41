/// \file bench_micro.cpp
/// google-benchmark micro-suite: cost of the Section 5 closed forms, chain
/// sampling, heuristic selection, and end-to-end engine throughput.  These
/// are the hot paths of the sweep harness; regressions here multiply
/// directly into campaign wall-clock time.  Every flag is google-benchmark's
/// own (`--benchmark_out=<path>` writes JSON).

#include <benchmark/benchmark.h>

#include "api/registry.hpp"
#include "api/simulation_builder.hpp"
#include "core/factory.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "markov/expectation.hpp"
#include "markov/gen.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace vm = volsched::markov;
namespace vs = volsched::sim;
namespace ve = volsched::exp;

namespace {

vm::TransitionMatrix bench_matrix() {
    volsched::util::Rng rng(12345);
    return vm::generate_matrix(rng);
}

void BM_EWorkload(benchmark::State& state) {
    const auto m = bench_matrix();
    double w = 1.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm::e_workload(m, w));
        w = (w < 1e6) ? w + 1.0 : 1.0;
    }
}
BENCHMARK(BM_EWorkload);

void BM_PPlus(benchmark::State& state) {
    const auto m = bench_matrix();
    for (auto _ : state) benchmark::DoNotOptimize(vm::p_plus(m));
}
BENCHMARK(BM_PPlus);

void BM_PUdExact(benchmark::State& state) {
    const auto m = bench_matrix();
    const auto k = static_cast<unsigned>(state.range(0));
    for (auto _ : state) benchmark::DoNotOptimize(vm::p_ud_exact(m, k));
}
BENCHMARK(BM_PUdExact)->Arg(8)->Arg(64)->Arg(4096);

void BM_PUdApprox(benchmark::State& state) {
    const auto chain = vm::MarkovChain(bench_matrix());
    const auto& pi = chain.stationary();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            vm::p_ud_approx(chain.matrix(), pi.pi_u, pi.pi_r, 64.0));
}
BENCHMARK(BM_PUdApprox);

void BM_ChainSampling(benchmark::State& state) {
    const auto chain = vm::MarkovChain(bench_matrix());
    volsched::util::Rng rng(99);
    auto s = vm::ProcState::Up;
    for (auto _ : state) {
        s = chain.sample_next(s, rng);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_ChainSampling);

void BM_StationarySolve(benchmark::State& state) {
    volsched::util::Rng rng(7);
    const auto m = vm::generate_matrix(rng);
    for (auto _ : state) {
        vm::MarkovChain chain(m);
        benchmark::DoNotOptimize(chain.stationary().pi_u);
    }
}
BENCHMARK(BM_StationarySolve);

void BM_EngineRun(benchmark::State& state) {
    ve::Scenario sc;
    sc.p = 20;
    sc.tasks = static_cast<int>(state.range(0));
    sc.ncom = 5;
    sc.wmin = static_cast<int>(state.range(1));
    sc.seed = 31415;
    const auto rs = ve::realize(sc);
    vs::EngineConfig cfg;
    cfg.iterations = 10;
    cfg.tasks_per_iteration = sc.tasks;
    const auto sim = vs::Simulation::builder()
                         .platform(rs.platform)
                         .markov(rs.chains)
                         .config(cfg)
                         .seed(9)
                         .build();
    const auto sched = volsched::api::SchedulerRegistry::instance().make("emct*");
    long long slots = 0;
    for (auto _ : state) {
        const auto metrics = sim.run(*sched);
        slots += metrics.makespan;
        benchmark::DoNotOptimize(metrics.makespan);
    }
    state.SetItemsProcessed(slots); // slots simulated per second
}
BENCHMARK(BM_EngineRun)->Args({10, 1})->Args({40, 1})->Args({10, 5});

void BM_HeuristicSelectCost(benchmark::State& state) {
    // One full 17-heuristic instance at a mid-grid point: the unit of work
    // the sweep repeats hundreds of thousands of times at paper scale.
    ve::Scenario sc;
    sc.p = 20;
    sc.tasks = 20;
    sc.ncom = 10;
    sc.wmin = 2;
    sc.seed = 2718;
    const auto rs = ve::realize(sc);
    ve::RunConfig rc;
    rc.iterations = 10;
    const auto& names = volsched::core::all_heuristic_names();
    for (auto _ : state) {
        const auto out = ve::run_instance(rs, sc.tasks, names, rc, 55);
        benchmark::DoNotOptimize(out.makespans.front());
    }
}
BENCHMARK(BM_HeuristicSelectCost)->Unit(benchmark::kMillisecond);

void BM_RegistryResolveSpec(benchmark::State& state) {
    // Spec-string parse + registry lookup + construction of a two-stage
    // scheduler: the per-run overhead run_instance pays per heuristic.
    const auto& registry = volsched::api::SchedulerRegistry::instance();
    for (auto _ : state) {
        const auto sched = registry.make("thr(percent=50):emct*");
        benchmark::DoNotOptimize(sched.get());
    }
}
BENCHMARK(BM_RegistryResolveSpec);

} // namespace

BENCHMARK_MAIN();
