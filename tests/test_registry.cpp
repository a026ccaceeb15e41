/// Facade regression suite: scheduler registry (self-registration, spec
/// grammar round-trips, did-you-mean errors), the registration contract
/// both spec registries share (bad names, duplicates, erase), and the
/// fluent Simulation/Experiment builders (validation diagnostics, and
/// bit-identity of the builder path against the raw constructor path).

#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>

#include "support/fixtures.hpp"
#include "volsched/volsched.hpp"

namespace va = volsched::api;
namespace vc = volsched::core;
namespace vk = volsched::ckpt;
namespace vm = volsched::markov;
namespace vs = volsched::sim;
namespace ve = volsched::exp;
namespace vtr = volsched::trace;
namespace vt = volsched::test;

namespace {

/// A registry-visible dummy scheduler registered from this TU via the
/// public macro — proves that new heuristics plug in without touching any
/// core file.
class FirstEligibleScheduler final : public vs::Scheduler {
public:
    vs::ProcId select(const vs::SchedView&,
                      std::span<const vs::ProcId> eligible,
                      std::span<const int>, volsched::util::Rng&) override {
        return eligible.front();
    }
    [[nodiscard]] std::string_view name() const override {
        return "test-first";
    }
};

std::string message_of(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

} // namespace

VOLSCHED_REGISTER_SCHEDULER(test_first, {
    "test-first", "test-only: always picks the first eligible processor",
    [](const va::SchedulerSpec& spec, const va::SchedulerRegistry&)
        -> std::unique_ptr<vs::Scheduler> {
        va::require_no_options(spec);
        return std::make_unique<FirstEligibleScheduler>();
    }});

// ---------------------------------------------------------------------------
// Spec grammar.
// ---------------------------------------------------------------------------

TEST(SchedulerSpec, ParsesPlainNames) {
    const auto spec = va::SchedulerSpec::parse("emct*");
    EXPECT_EQ(spec.name(), "emct*");
    EXPECT_TRUE(spec.options().empty());
    EXPECT_FALSE(spec.has_inner());
}

TEST(SchedulerSpec, ParsesWrapperChainsAndOptions) {
    const auto spec = va::SchedulerSpec::parse("thr(percent=50):emct");
    EXPECT_EQ(spec.name(), "thr");
    ASSERT_NE(spec.option("percent"), nullptr);
    EXPECT_EQ(*spec.option("percent"), "50");
    ASSERT_TRUE(spec.has_inner());
    EXPECT_EQ(spec.inner().name(), "emct");

    const auto nested = va::SchedulerSpec::parse("thr25:thr50:emct");
    EXPECT_EQ(nested.name(), "thr25");
    ASSERT_TRUE(nested.has_inner());
    EXPECT_EQ(nested.inner().name(), "thr50");
    ASSERT_TRUE(nested.inner().has_inner());
    EXPECT_EQ(nested.inner().inner().name(), "emct");
}

TEST(SchedulerSpec, CanonicalRoundTrips) {
    for (const char* text :
         {"emct*", "thr50:emct", "thr(percent=50):emct",
          "thr(percent=25):thr(percent=50):mct*", "random2w",
          "a(k=v,k2=v2):b"}) {
        const auto spec = va::SchedulerSpec::parse(text);
        EXPECT_EQ(spec.canonical(), text) << text;
        EXPECT_EQ(va::SchedulerSpec::parse(spec.canonical()), spec) << text;
    }
    // Whitespace normalizes away.
    EXPECT_EQ(va::SchedulerSpec::parse(" thr50 : emct ").canonical(),
              "thr50:emct");
    EXPECT_EQ(va::SchedulerSpec::parse("thr( percent = 50 ):emct").canonical(),
              "thr(percent=50):emct");
}

TEST(SchedulerSpec, RejectsMalformedInput) {
    for (const char* text :
         {"", "  ", "thr50:", ":emct", "a(", "a)", "a()", "a(b)", "a(b=c",
          "a(b=c,b=d)", "a(=c)", "a(b=)", "a(,)", "emct::mct"}) {
        EXPECT_THROW((void)va::SchedulerSpec::parse(text),
                     std::invalid_argument)
            << "accepted '" << text << "'";
    }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(SchedulerRegistry, AllPaperAndExtensionNamesResolve) {
    const auto& registry = va::SchedulerRegistry::instance();
    for (const auto& name : vc::all_heuristic_names()) {
        EXPECT_TRUE(registry.contains(name)) << name;
        EXPECT_EQ(registry.make(name)->name(), name);
    }
    for (const auto& name : vc::extension_heuristic_names())
        EXPECT_EQ(registry.make(name)->name(), name);
}

TEST(SchedulerRegistry, MacroRegistrationFromThisTuIsVisible) {
    // Both through the registry and through the legacy factory shim.
    EXPECT_TRUE(va::SchedulerRegistry::instance().contains("test-first"));
    EXPECT_EQ(vt::make_scheduler("test-first")->name(), "test-first");
}

TEST(SchedulerRegistry, ShorthandAndKeyValueSpecsAreEquivalent) {
    const auto& registry = va::SchedulerRegistry::instance();
    const auto a = registry.make("thr50:emct");
    const auto b = registry.make("thr(percent=50):emct");
    EXPECT_EQ(a->name(), b->name());
    EXPECT_EQ(a->name(), "thr50:emct");
}

TEST(SchedulerRegistry, UnknownNamesGetEditDistanceSuggestions) {
    const auto& registry = va::SchedulerRegistry::instance();
    const std::string transposed =
        message_of([&] { (void)registry.make("emtc"); });
    EXPECT_NE(transposed.find("did you mean 'emct'"), std::string::npos)
        << transposed;
    // Case-insensitive match: the legacy factory rejected "EMCT" with no
    // hint; the registry still throws but points at the lowercase name.
    const std::string upper =
        message_of([&] { (void)registry.make("EMCT"); });
    EXPECT_NE(upper.find("did you mean 'emct'"), std::string::npos) << upper;
    // Nothing close: no misleading suggestion.
    const std::string garbage = message_of(
        [&] { (void)registry.make("qqqqqqqqqqqqqqqqqq"); });
    EXPECT_EQ(garbage.find("did you mean"), std::string::npos) << garbage;
}

TEST(SchedulerRegistry, WrapperStageRulesAreEnforced) {
    const auto& registry = va::SchedulerRegistry::instance();
    // thr without an inner stage / percent out of range / unknown option.
    EXPECT_THROW((void)registry.make("thr50"), std::invalid_argument);
    EXPECT_THROW((void)registry.make("thr:mct"), std::invalid_argument);
    EXPECT_THROW((void)registry.make("thr500:mct"), std::invalid_argument);
    EXPECT_THROW((void)registry.make("thr(pct=50):mct"),
                 std::invalid_argument);
    // Spec integers take no sign: "+50" is not a percent.
    EXPECT_THROW((void)registry.make("thr(percent=+50):emct"),
                 std::invalid_argument);
    // Inner stage on a non-wrapper, options on an option-free scheduler.
    EXPECT_THROW((void)registry.make("emct:mct"), std::invalid_argument);
    EXPECT_THROW((void)registry.make("mct(foo=1)"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The registration contract both spec registries share (SpecRegistry).
// ---------------------------------------------------------------------------

namespace {

/// A registration named `name` for either registry, with a working factory
/// or none.
va::SchedulerInfo probe_info(const va::SchedulerRegistry&, std::string name,
                             bool with_factory) {
    va::SchedulerInfo::Factory factory;
    if (with_factory)
        factory = [](const va::SchedulerSpec&, const va::SchedulerRegistry&)
            -> std::unique_ptr<vs::Scheduler> {
            return std::make_unique<FirstEligibleScheduler>();
        };
    return {std::move(name), "test-only registration probe", factory};
}

vk::CheckpointInfo probe_info(const vk::CheckpointRegistry&, std::string name,
                              bool with_factory) {
    vk::CheckpointInfo::Factory factory;
    if (with_factory)
        factory = [](const va::SchedulerSpec&)
            -> std::unique_ptr<vk::CheckpointPolicy> {
            return vk::CheckpointRegistry::instance().make("none");
        };
    return {std::move(name), "test-only registration probe", factory};
}

template <typename Registry>
class RegistryContract : public ::testing::Test {
protected:
    Registry& registry = Registry::instance();

    auto info(std::string name, bool with_factory = true) const {
        return probe_info(registry, std::move(name), with_factory);
    }
};

struct RegistryName {
    template <typename Registry>
    static std::string GetName(int) {
        return std::is_same_v<Registry, va::SchedulerRegistry> ? "Scheduler"
                                                               : "Checkpoint";
    }
};

using Registries =
    ::testing::Types<va::SchedulerRegistry, vk::CheckpointRegistry>;

} // namespace

TYPED_TEST_SUITE(RegistryContract, Registries, RegistryName);

TYPED_TEST(RegistryContract, RejectsBadRegistrations) {
    auto& registry = this->registry;
    EXPECT_THROW(registry.add(this->info("")), std::invalid_argument);
    for (const char* name : {"bad:name", "bad(name", "bad)name", "bad,name",
                             "bad=name"}) {
        EXPECT_THROW(registry.add(this->info(name)), std::invalid_argument)
            << name;
        EXPECT_FALSE(registry.contains(name)) << name;
    }
    EXPECT_THROW(registry.add(this->info("test-nofactory", false)),
                 std::invalid_argument);
    EXPECT_FALSE(registry.contains("test-nofactory"));
}

TYPED_TEST(RegistryContract, DuplicateRegistrationIsRejected) {
    auto& registry = this->registry;
    registry.add(this->info("test-dup"));
    EXPECT_TRUE(registry.contains("test-dup"));
    EXPECT_THROW(registry.add(this->info("test-dup")), std::invalid_argument);
    // A built-in name is taken too.
    const std::string builtin = registry.names().front();
    EXPECT_THROW(registry.add(this->info(builtin)), std::invalid_argument);
    EXPECT_TRUE(registry.contains(builtin));
    EXPECT_TRUE(registry.erase("test-dup"));
    EXPECT_FALSE(registry.erase("test-dup"));
    EXPECT_FALSE(registry.contains("test-dup"));
}

TEST(SchedulerRegistry, ValidateMatchesMake) {
    const auto& registry = va::SchedulerRegistry::instance();
    EXPECT_NO_THROW(registry.validate("thr(percent=25):emct*"));
    EXPECT_THROW(registry.validate("thr(percent=25):emtc"),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SimulationBuilder.
// ---------------------------------------------------------------------------

TEST(SimulationBuilder, MissingIngredientsProduceDiagnostics) {
    const auto setup = vt::recipe_setup(4, 2, 2, 11);

    const std::string no_platform = message_of(
        [&] { (void)vs::Simulation::builder().markov(setup.chains).build(); });
    EXPECT_NE(no_platform.find("no platform"), std::string::npos)
        << no_platform;

    const std::string no_availability = message_of(
        [&] { (void)vs::Simulation::builder().platform(setup.platform).build(); });
    EXPECT_NE(no_availability.find("no availability source"),
              std::string::npos)
        << no_availability;
}

TEST(SimulationBuilder, SizeMismatchesProduceDiagnostics) {
    const auto setup = vt::recipe_setup(4, 2, 2, 11);

    auto short_chains = setup.chains;
    short_chains.pop_back();
    const std::string wrong_models = message_of([&] {
        (void)vs::Simulation::builder()
            .platform(setup.platform)
            .markov(short_chains)
            .build();
    });
    EXPECT_NE(wrong_models.find("3 models"), std::string::npos)
        << wrong_models;
    EXPECT_NE(wrong_models.find("4 processors"), std::string::npos)
        << wrong_models;

    const std::string wrong_beliefs = message_of([&] {
        (void)vs::Simulation::builder()
            .platform(setup.platform)
            .markov(setup.chains)
            .beliefs(short_chains)
            .build();
    });
    EXPECT_NE(wrong_beliefs.find(".beliefs(...) got 3"), std::string::npos)
        << wrong_beliefs;
}

TEST(SimulationBuilder, RejectsTwoSourcesAndDoubleBuild) {
    const auto setup = vt::recipe_setup(3, 2, 2, 5);
    EXPECT_THROW((void)vs::Simulation::builder()
                     .markov(setup.chains)
                     .markov(setup.chains),
                 std::invalid_argument);

    auto builder = vs::Simulation::builder();
    builder.platform(setup.platform).markov(setup.chains);
    (void)builder.build();
    EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(SimulationBuilder, BuilderPathBitMatchesConstructorPath) {
    const auto sc = vt::small_scenario(77);
    const auto rs = ve::realize(sc);
    vs::EngineConfig cfg = vt::audited_config(2, sc.tasks);

    for (const char* name : {"emct*", "mct", "random2w"}) {
        vs::ActionTrace ta, tb;
        vs::EngineConfig ca = cfg;
        ca.observers = {&ta};
        const auto a =
            vs::Simulation::from_chains(rs.platform, rs.chains, ca, 5);
        const auto ma = a.run(*vt::make_scheduler(name));

        const auto b = vs::Simulation::builder()
                           .platform(rs.platform)
                           .markov(rs.chains)
                           .config(cfg)
                           .observe(&tb)
                           .seed(5)
                           .build();
        const auto mb =
            b.run(*va::SchedulerRegistry::instance().make(name));

        EXPECT_EQ(ma.makespan, mb.makespan) << name;
        EXPECT_EQ(ma.completed, mb.completed) << name;
        EXPECT_EQ(ma.tasks_completed, mb.tasks_completed) << name;
        EXPECT_EQ(ma.down_events, mb.down_events) << name;
        EXPECT_EQ(ma.iteration_ends, mb.iteration_ends) << name;

        ASSERT_EQ(ta.procs(), tb.procs()) << name;
        ASSERT_EQ(ta.slots(), tb.slots()) << name;
        for (int q = 0; q < ta.procs(); ++q) {
            const auto& ra = ta.row(q);
            const auto& rb = tb.row(q);
            for (std::size_t t = 0; t < ra.size(); ++t) {
                ASSERT_EQ(ra[t].recv, rb[t].recv) << name;
                ASSERT_EQ(ra[t].compute, rb[t].compute) << name;
            }
        }
    }
}

TEST(SimulationBuilder, ReplayAndEmpiricalSourcesRun) {
    const auto setup = vt::recipe_setup(4, 2, 1, 3);
    volsched::util::Rng rng(9);
    std::vector<vtr::RecordedTrace> traces;
    for (const auto& chain : setup.chains) {
        const vm::MarkovAvailability proto(chain);
        traces.push_back(vtr::record(proto, 4000, rng));
    }

    // replay(): uninformed — the traces drive availability verbatim.
    const auto replayed = vs::Simulation::builder()
                              .platform(setup.platform)
                              .replay(traces)
                              .iterations(2)
                              .tasks_per_iteration(4)
                              .seed(3)
                              .build();
    const auto mr = replayed.run(*vt::make_scheduler("mct"));
    EXPECT_TRUE(mr.completed);

    // empirical(): same replay plus per-trace fitted Markov beliefs, which
    // informed heuristics can exploit.
    const auto empirical = vs::Simulation::builder()
                               .platform(setup.platform)
                               .empirical(traces)
                               .iterations(2)
                               .tasks_per_iteration(4)
                               .seed(3)
                               .build();
    const auto me = empirical.run(*vt::make_scheduler("emct*"));
    EXPECT_TRUE(me.completed);

    EXPECT_THROW((void)vs::Simulation::builder()
                     .platform(setup.platform)
                     .empirical({vtr::RecordedTrace{}}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ExperimentBuilder.
// ---------------------------------------------------------------------------

TEST(ExperimentBuilder, ValidatesHeuristicsAndGrid) {
    EXPECT_THROW((void)va::ExperimentBuilder().run(), std::invalid_argument);
    EXPECT_THROW(va::ExperimentBuilder().heuristics({"emtc"}),
                 std::invalid_argument);
    const std::string typo = message_of(
        [&] { va::ExperimentBuilder().heuristics({"mct", "emtc"}); });
    EXPECT_NE(typo.find("did you mean 'emct'"), std::string::npos) << typo;

    va::ExperimentBuilder degenerate;
    degenerate.heuristics({"mct"}).tasks({});
    EXPECT_THROW((void)degenerate.sweep_config(), std::invalid_argument);
    va::ExperimentBuilder negative;
    negative.heuristics({"mct"}).trials(0);
    EXPECT_THROW((void)negative.run(), std::invalid_argument);

    // The two empty-list rejections name the builder call that fills them.
    const std::string no_heuristics =
        message_of([] { (void)va::ExperimentBuilder().run(); });
    EXPECT_NE(no_heuristics.find(".all_heuristics()"), std::string::npos)
        << no_heuristics;
    const std::string no_policy = message_of([] {
        (void)va::ExperimentBuilder()
            .heuristics({"mct"})
            .checkpoints({})
            .sweep_config();
    });
    EXPECT_NE(no_policy.find(".checkpoints({...})"), std::string::npos)
        << no_policy;
}

TEST(ExperimentBuilder, RunMatchesRawSweep) {
    va::ExperimentBuilder experiment;
    experiment.heuristics({"mct", "emct"})
        .tasks({4})
        .ncom({2})
        .wmin({1, 2})
        .processors(4)
        .scenarios_per_cell(1)
        .trials(2)
        .iterations(2)
        .seed(0xFEED)
        .threads(2);

    const auto via_builder = experiment.run();

    ve::SweepConfig cfg;
    cfg.tasks_values = {4};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1, 2};
    cfg.p = 4;
    cfg.scenarios_per_cell = 1;
    cfg.trials_per_scenario = 2;
    cfg.run.iterations = 2;
    cfg.master_seed = 0xFEED;
    cfg.threads = 2;
    const auto raw = ve::run_sweep(cfg, {"mct", "emct"});

    ASSERT_EQ(via_builder.heuristics, raw.heuristics);
    ASSERT_EQ(via_builder.overall.instances(), raw.overall.instances());
    for (std::size_t h = 0; h < raw.heuristics.size(); ++h)
        EXPECT_DOUBLE_EQ(via_builder.overall.mean_dfb(h),
                         raw.overall.mean_dfb(h));
}

TEST(RawSweep, RejectsUnknownHeuristicUpFront) {
    ve::SweepConfig cfg;
    cfg.tasks_values = {4};
    cfg.ncom_values = {2};
    cfg.wmin_values = {1};
    cfg.scenarios_per_cell = 1;
    cfg.trials_per_scenario = 1;
    EXPECT_THROW((void)ve::run_sweep(cfg, {"mct", "not-a-heuristic"}),
                 std::invalid_argument);
}
