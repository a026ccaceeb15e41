/// \file bench_ckpt.cpp
/// Checkpoint/restart effectiveness across volatility regimes: how much of
/// the paper's crash-lose-everything compute waste
/// (RunMetrics::wasted_compute_slots) each recovery policy claws back, and
/// what it pays for that in checkpoint bandwidth and paused compute.
///
/// Two platform families:
///
///  * *Paper-recipe Markov fleets* at three self-transition regimes
///    (calm 0.90..0.99 — the paper's Table 1 — down to volatile
///    0.35..0.60), chains doubling as beliefs.
///
///  * *The absence-dominated desktop-grid fleet*: heavy-tailed semi-Markov
///    night-shift workers (short UP bursts, long absences), Markov beliefs
///    fitted from the equivalent-Markov matrix — where long tasks rarely
///    survive an UP burst and restart-from-checkpoint pays the most.
///
/// Every policy faces the identical availability realizations (same seeds,
/// shared builder recipe), so per-regime deltas are same-instance, like the
/// paper's dfb metric.  `--smoke` shrinks the grid for CI.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/simulation_builder.hpp"
#include "ckpt/registry.hpp"
#include "exp/scenario.hpp"
#include "sim/engine.hpp"
#include "trace/semi_markov.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace va = volsched::api;
namespace vc = volsched::ckpt;
namespace ve = volsched::exp;
namespace vm = volsched::markov;
namespace vs = volsched::sim;
namespace vt = volsched::trace;

namespace {

struct Accum {
    long long wasted_compute = 0;
    long long saved_compute = 0;
    long long checkpoint_slots = 0;
    long long checkpoints = 0;
    long long recoveries = 0;
    long long makespan = 0;
    long long completed = 0;
    long long runs = 0;

    void add(const vs::RunMetrics& m) {
        wasted_compute += m.wasted_compute_slots;
        saved_compute += m.saved_compute_slots;
        checkpoint_slots += m.checkpoint_slots;
        checkpoints += m.checkpoints_committed;
        recoveries += m.recoveries;
        makespan += m.makespan;
        completed += m.completed ? 1 : 0;
        ++runs;
    }
};

/// One regime: a family of platform+belief recipes, rebuilt per seed so
/// every policy replays the identical draws.
struct Regime {
    std::string name;
    /// Builds the simulation for (seed ordinal s); checkpoint knobs are
    /// applied by the caller.
    std::function<va::SimulationBuilder(int)> builder;
};

Regime markov_regime(std::string name, double self_lo, double self_hi,
                     int procs, int tasks, int iterations,
                     long long max_slots, std::uint64_t seed) {
    return {std::move(name), [=](int s) {
                ve::Scenario sc;
                sc.p = procs;
                sc.tasks = tasks;
                sc.ncom = 5;
                sc.wmin = 4; // long-ish tasks: something to lose in a crash
                sc.recipe.self_lo = self_lo;
                sc.recipe.self_hi = self_hi;
                sc.seed = volsched::util::mix_seed(seed, 0xC4A7ULL, s);
                const ve::RealizedScenario rs = ve::realize(sc);
                auto builder = vs::Simulation::builder();
                builder.platform(rs.platform)
                    .markov(rs.chains)
                    .iterations(iterations)
                    .tasks_per_iteration(tasks)
                    // A bounded horizon: on the most volatile regime the
                    // checkpoint-free baseline may simply never finish —
                    // that *is* the result (see the completed column) and
                    // must not cost 10M simulated slots to establish.
                    .max_slots(max_slots)
                    .seed(sc.seed);
                return builder;
            }};
}

/// A desktop-grid fleet (3 night-shift workers, ~90% absent
/// in long stretches) with tasks long enough (w=30, about one whole UP
/// burst) that a crash forfeits a burst's worth of work — the regime where
/// the Young/Daly interval (~20 slots here) says checkpointing pays.
Regime desktop_grid_regime(int iterations, long long max_slots,
                           std::uint64_t seed) {
    return {"desktop-grid", [=](int s) {
                using vt::SojournDist;
                constexpr int kProcs = 3;
                const auto pf = vs::Platform::homogeneous(
                    kProcs, /*w_all=*/30, /*ncom=*/2, /*t_prog=*/10,
                    /*t_data=*/2);
                vt::SemiMarkovParams params;
                params.sojourn = {SojournDist::weibull_with_mean(0.7, 30.0),
                                  SojournDist::weibull_with_mean(0.9, 80.0),
                                  SojournDist::weibull_with_mean(0.8, 400.0)};
                params.jump[0] = {0.0, 0.5, 0.5};
                params.jump[1] = {0.5, 0.0, 0.5};
                params.jump[2] = {0.9, 0.1, 0.0};
                const std::vector<vm::MarkovChain> beliefs(
                    kProcs,
                    vm::MarkovChain(vt::SemiMarkovAvailability(params)
                                        .equivalent_markov_matrix()));
                std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
                models.reserve(kProcs);
                for (int q = 0; q < kProcs; ++q)
                    models.push_back(
                        std::make_unique<vt::SemiMarkovAvailability>(params));
                auto builder = vs::Simulation::builder();
                builder.platform(pf)
                    .models(std::move(models))
                    .beliefs(beliefs)
                    .iterations(iterations)
                    .tasks_per_iteration(4)
                    .max_slots(max_slots)
                    .seed(volsched::util::mix_seed(seed, 0xD36FULL, s));
                return builder;
            }};
}

Accum measure(const Regime& regime, const std::string& policy, int cost,
              int seeds, const std::string& heuristic) {
    const auto sched = va::SchedulerRegistry::instance().make(heuristic);
    Accum acc;
    for (int s = 0; s < seeds; ++s) {
        auto builder = regime.builder(s);
        if (policy != "none")
            builder.checkpoint(policy).checkpoint_cost(cost);
        const auto sim = builder.build();
        acc.add(sim.run(*sched));
    }
    return acc;
}

} // namespace

int main(int argc, char** argv) {
    volsched::util::Cli cli(
        "bench_ckpt",
        "Measures wasted-compute reduction from checkpoint/restart policies "
        "across volatility regimes");
    cli.add_int("procs", 20, "processors per Markov platform");
    cli.add_int("tasks", 10, "tasks per iteration (Markov regimes)");
    cli.add_int("iterations", 5, "application iterations per run");
    cli.add_int("seeds", 8, "independent instances per (regime, policy)");
    cli.add_int("cost", 2, "checkpoint upload cost in transfer slots");
    cli.add_int("seed", 4242, "master seed");
    cli.add_string("heuristic", "emct", "scheduler spec used for every run");
    cli.add_string("policies", "none,periodic8,daly,risk(percent=25)",
                   "comma-separated checkpoint-policy axis ('none' first is "
                   "the baseline)");
    cli.add_flag("smoke", "tiny configuration for CI perf smoke");
    if (!cli.parse(argc, argv)) return cli.exit_code();

    int procs = static_cast<int>(cli.get_int("procs"));
    int tasks = static_cast<int>(cli.get_int("tasks"));
    int iterations = static_cast<int>(cli.get_int("iterations"));
    int seeds = static_cast<int>(cli.get_int("seeds"));
    const int cost = static_cast<int>(cli.get_int("cost"));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const std::string heuristic = cli.get_string("heuristic");
    long long max_slots = 150'000;
    if (cli.get_flag("smoke")) {
        procs = 8;
        tasks = 5;
        iterations = 2;
        seeds = 3;
        max_slots = 25'000;
    }

    const auto policies =
        volsched::util::split_list(cli.get_string("policies"));
    if (policies.empty()) {
        std::fprintf(stderr, "--policies names no specs\n");
        return 2;
    }
    for (const auto& p : policies) {
        if (p == "none") continue;
        try {
            vc::CheckpointRegistry::instance().validate(p);
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    const std::vector<Regime> regimes = {
        markov_regime("markov-calm", 0.90, 0.99, procs, tasks, iterations,
                      max_slots, seed),
        markov_regime("markov-mid", 0.60, 0.85, procs, tasks, iterations,
                      max_slots, seed),
        markov_regime("markov-volatile", 0.45, 0.70, procs, tasks,
                      iterations, max_slots, seed),
        desktop_grid_regime(iterations, max_slots, seed),
    };

    std::printf("bench_ckpt: %d seeds per (regime, policy), cost=%d, "
                "heuristic=%s\n\n",
                seeds, cost, heuristic.c_str());

    for (const auto& regime : regimes) {
        volsched::util::TextTable table(
            {"policy", "wasted", "saved", "ckpt slots", "recoveries",
             "mean makespan", "completed"});
        for (std::size_t c = 1; c <= 6; ++c) table.align_right(c);
        long long baseline_wasted = -1;
        for (const auto& policy : policies) {
            const Accum acc = measure(regime, policy, cost, seeds, heuristic);
            if (policy == "none") baseline_wasted = acc.wasted_compute;
            std::string wasted = std::to_string(acc.wasted_compute);
            if (policy != "none" && baseline_wasted > 0) {
                // Signed change vs the none baseline: negative = reduction.
                const double delta =
                    100.0 * (static_cast<double>(acc.wasted_compute) -
                             static_cast<double>(baseline_wasted)) /
                    static_cast<double>(baseline_wasted);
                char buf[32];
                std::snprintf(buf, sizeof buf, " (%+.0f%%)", delta);
                wasted += buf;
            }
            table.add_row(
                {policy, wasted, std::to_string(acc.saved_compute),
                 std::to_string(acc.checkpoint_slots),
                 std::to_string(acc.recoveries),
                 volsched::util::TextTable::num(
                     static_cast<double>(acc.makespan) /
                         static_cast<double>(acc.runs > 0 ? acc.runs : 1),
                     1),
                 std::to_string(acc.completed) + "/" +
                     std::to_string(acc.runs)});
        }
        std::printf("%s",
                    table.render("regime: " + regime.name +
                                 "  (wasted/saved in compute slot-units, "
                                 "summed over seeds)")
                        .c_str());
        std::printf("\n");
    }
    return 0;
}
