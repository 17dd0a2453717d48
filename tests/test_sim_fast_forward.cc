/**
 * @file
 * Differential tests of the trace simulator's fast-forwarded runs.
 *
 * The legacy loop-nest walk fast-forwards an innermost run of tiles
 * when no refresh event falls inside it; an attached trace sink
 * needs per-tile events and forces the per-tile walk. Simulating the
 * same layers with and without a CountingTraceSink must therefore
 * give bit-identical results: every LayerSimResult field, the
 * controller totals, the simulated clock and the refresh-pulse
 * counters. The cases include timing faults and intervals shorter
 * than the scheduled one, so stale reads are counted on both walks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "core/design_point.hh"
#include "nn/model_zoo.hh"
#include "obs/metrics_registry.hh"
#include "sched/layer_scheduler.hh"
#include "sim/loopnest_simulator.hh"
#include "sim/pattern_analytics.hh"
#include "sim/trace_export.hh"

#include "random_scenario.hh"

namespace rana {
namespace {

/** A layer and the analysis the simulator walks. */
struct SimLayer
{
    const ConvLayerSpec *layer;
    const LayerAnalysis *analysis;
};

/** One simulator setup. */
struct SimSetup
{
    AcceleratorConfig config;
    RefreshPolicy policy = RefreshPolicy::PerBank;
    double interval = 45e-6;
    TimingFaults faults;
};

std::uint64_t
counterValue(const char *name)
{
    return MetricsRegistry::global().counter(name).value();
}

/** Everything a walk leaves behind, with counter deltas. */
struct Outcome
{
    std::vector<LayerSimResult> layers;
    std::uint64_t refreshOps = 0;
    std::uint64_t violations = 0;
    double now = 0.0;
    std::uint64_t pulsesIssued = 0;
    std::uint64_t pulsesSuppressed = 0;
    std::uint64_t tiles = 0;
    std::uint64_t fastForwarded = 0;
};

Outcome
simulate(const SimSetup &setup, const std::vector<SimLayer> &layers,
         bool per_tile)
{
    LoopNestSimulator sim(setup.config, setup.policy, setup.interval);
    sim.setTimingFaults(setup.faults);
    CountingTraceSink sink;
    if (per_tile)
        sim.setTraceSink(&sink);
    const std::uint64_t issued =
        counterValue("edram_refresh_pulses_issued_total");
    const std::uint64_t suppressed =
        counterValue("edram_refresh_pulses_suppressed_total");
    const std::uint64_t tiles = counterValue("sim_tiles_simulated_total");
    const std::uint64_t fast =
        counterValue("sim_tiles_fast_forwarded_total");
    Outcome out;
    for (const SimLayer &l : layers)
        out.layers.push_back(sim.runLayer(*l.layer, *l.analysis));
    out.refreshOps = sim.totalRefreshOps();
    out.violations = sim.totalViolations();
    out.now = sim.now();
    out.pulsesIssued =
        counterValue("edram_refresh_pulses_issued_total") - issued;
    out.pulsesSuppressed =
        counterValue("edram_refresh_pulses_suppressed_total") -
        suppressed;
    out.tiles = counterValue("sim_tiles_simulated_total") - tiles;
    out.fastForwarded =
        counterValue("sim_tiles_fast_forwarded_total") - fast;
    return out;
}

template <typename T>
bool
sameBits(const T &a, const T &b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

#define EXPECT_SAME_BITS(fast, slow, field)                             \
    EXPECT_TRUE(sameBits((fast).field, (slow).field))                   \
        << #field << ": " << (fast).field << " vs " << (slow).field

/** Simulate both ways; the two walks must agree bit for bit. */
Outcome
expectIdenticalWalks(const SimSetup &setup,
                     const std::vector<SimLayer> &layers)
{
    const Outcome fast = simulate(setup, layers, false);
    const Outcome slow = simulate(setup, layers, true);
    EXPECT_EQ(slow.fastForwarded, 0u) << "a trace sink must force the "
                                         "per-tile walk";
    EXPECT_EQ(fast.tiles, slow.tiles);
    EXPECT_EQ(fast.layers.size(), slow.layers.size());
    for (std::size_t i = 0;
         i < fast.layers.size() && i < slow.layers.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "layer " << i);
        const LayerSimResult &f = fast.layers[i];
        const LayerSimResult &s = slow.layers[i];
        EXPECT_SAME_BITS(f, s, counts.macOps);
        EXPECT_SAME_BITS(f, s, counts.bufferAccesses);
        EXPECT_SAME_BITS(f, s, counts.refreshOps);
        EXPECT_SAME_BITS(f, s, counts.ddrAccesses);
        EXPECT_SAME_BITS(f, s, layerSeconds);
        EXPECT_SAME_BITS(f, s, utilization);
        EXPECT_SAME_BITS(f, s, refreshOps);
        EXPECT_SAME_BITS(f, s, violations);
        EXPECT_SAME_BITS(f, s, guardTrips);
        for (std::size_t t = 0; t < numDataTypes; ++t)
            EXPECT_SAME_BITS(f, s, observedLifetime[t]);
        EXPECT_SAME_BITS(f, s, stallSeconds);
    }
    EXPECT_SAME_BITS(fast, slow, refreshOps);
    EXPECT_SAME_BITS(fast, slow, violations);
    EXPECT_SAME_BITS(fast, slow, now);
    EXPECT_SAME_BITS(fast, slow, pulsesIssued);
    EXPECT_SAME_BITS(fast, slow, pulsesSuppressed);
    return fast;
}

TEST(SimFastForward, RandomScenariosMatchPerTileWalk)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    TimingFaults stalled;
    stalled.scanStallSeconds = 20e-6;
    TimingFaults slowed;
    slowed.slowdownFactor = 1.7;
    const SimSetup setups[] = {
        {config, RefreshPolicy::PerBank, 45e-6, {}},
        {config, RefreshPolicy::GatedGlobal, 45e-6, stalled},
        {config, RefreshPolicy::PerBank, 22.5e-6, slowed},
        {config, RefreshPolicy::ConventionalAll, 45e-6, slowed},
        {config, RefreshPolicy::None, 45e-6, stalled},
    };
    std::uint64_t violations = 0;
    std::uint64_t tiles = 0;
    std::uint64_t fast_forwarded = 0;
    std::size_t next_setup = 0;
    for (int seed = 0; seed < 25; ++seed) {
        for (const DataflowKind kind : legacyDataflows()) {
            const auto found =
                test::feasibleScenario(seed, [&](const test::Scenario &s) {
                    return analyzeLayer(config, s.layer,
                                        dataflowSpec(kind), s.tiling);
                });
            ASSERT_TRUE(found.has_value());
            // Each scenario runs under the next setup in turn, so
            // every setup sees all three dataflows.
            const SimSetup &setup =
                setups[next_setup++ % std::size(setups)];
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " " << dataflowName(kind)
                         << " " << refreshPolicyName(setup.policy) << " "
                         << setup.interval);
            const Outcome out = expectIdenticalWalks(
                setup, {{&found->scenario.layer, &found->analysis}});
            violations += out.violations;
            tiles += out.tiles;
            fast_forwarded += out.fastForwarded;
        }
    }
    // Both walks and the stale-read path were exercised.
    EXPECT_GT(violations, 0u);
    EXPECT_GT(fast_forwarded, 0u);
    EXPECT_LT(fast_forwarded, tiles);
}

TEST(SimFastForward, NetworksUnderFaultsMatchPerTileWalk)
{
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    TimingFaults stalled;
    stalled.scanStallSeconds = 0.002;
    TimingFaults slowed;
    slowed.slowdownFactor = 1.7;
    std::uint64_t violations = 0;
    std::uint64_t tiles = 0;
    std::uint64_t fast_forwarded = 0;
    for (const NetworkModel &network : {makeAlexNet(), makeResNet18()}) {
        for (const DesignKind kind :
             {DesignKind::EdramId, DesignKind::EdramOd, DesignKind::Rana0,
              DesignKind::RanaE5, DesignKind::RanaStarE5}) {
            const DesignPoint design = makeDesignPoint(kind, retention);
            const NetworkSchedule schedule = scheduleNetworkOrDie(
                design.config, network, design.options);
            std::vector<SimLayer> layers;
            for (std::size_t i = 0; i < network.size(); ++i)
                layers.push_back(
                    {&network.layer(i), &schedule.layers[i].analysis});
            const double interval = design.options.refreshIntervalSeconds;
            const SimSetup setups[] = {
                {design.config, design.options.policy, interval, {}},
                {design.config, design.options.policy, interval, stalled},
                // Half the scheduled interval: lifetimes the schedule
                // left unrefreshed now outlive the retention time.
                {design.config, design.options.policy, interval / 2,
                 slowed},
            };
            for (const SimSetup &setup : setups) {
                SCOPED_TRACE(::testing::Message()
                             << network.name() << " "
                             << designKindName(kind) << " "
                             << setup.interval << " stall "
                             << setup.faults.scanStallSeconds
                             << " slowdown "
                             << setup.faults.slowdownFactor);
                const Outcome out = expectIdenticalWalks(setup, layers);
                violations += out.violations;
                tiles += out.tiles;
                fast_forwarded += out.fastForwarded;
            }
        }
    }
    EXPECT_GT(violations, 0u);
    EXPECT_GT(fast_forwarded, 0u);
    EXPECT_LT(fast_forwarded, tiles);
}

TEST(SimFastForward, GuardForcesPerTileWalk)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    const ConvLayerSpec layer = makeConv("c", 64, 28, 64, 3, 1, 1);
    const LayerAnalysis analysis = analyzeLayer(
        config, layer, dataflowSpec(DataflowKind::OD), {16, 16, 7, 7});
    ASSERT_TRUE(analysis.feasible);
    ReliabilityGuard guard(45e-6);
    LoopNestSimulator sim(config, RefreshPolicy::PerBank, 45e-6);
    sim.attachGuard(&guard);
    const std::uint64_t fast =
        counterValue("sim_tiles_fast_forwarded_total");
    sim.runLayer(layer, analysis);
    EXPECT_EQ(counterValue("sim_tiles_fast_forwarded_total"), fast);

    sim.attachGuard(nullptr);
    sim.runLayer(layer, analysis);
    EXPECT_GT(counterValue("sim_tiles_fast_forwarded_total"), fast);
}

TEST(SimFastForward, ControllerQueriesMatchAdvance)
{
    const AcceleratorConfig config = testAcceleratorEdram();
    RefreshControllerSim controller(config.buffer,
                                    RefreshPolicy::ConventionalAll,
                                    config.frequencyHz, 45e-6);
    const BankAllocation allocation =
        allocateBanks(config.buffer, 1000, 1000, 1000);
    controller.beginLayer(allocation, {false, false, false}, true, 0.0);
    controller.onWrite(DataType::Input, 0.0);
    const double period = controller.pulsePeriod();
    EXPECT_EQ(controller.eventHorizon().next, period);
    EXPECT_FALSE(controller.eventHorizon().dueBy(0.5 * period));
    EXPECT_TRUE(controller.eventHorizon().dueBy(period));

    // Only types that hold data are tested.
    const auto test = controller.staleTest(DataType::Input);
    EXPECT_TRUE(test.active);
    EXPECT_FALSE(test.stale(0.9 * period, 0.0));
    EXPECT_FALSE(controller.staleTest(DataType::Output).active);

    controller.skipAhead(0.5 * period, 2);
    EXPECT_EQ(controller.violations(), 2u);
    EXPECT_EQ(controller.refreshOps(), 0u);
    controller.advanceTo(period);
    EXPECT_GT(controller.refreshOps(), 0u);
    EXPECT_EQ(controller.eventHorizon().next, 2.0 * period);
    EXPECT_EQ(controller.staleTest(DataType::Input).lastRefresh, period);
}

TEST(SimFastForward, StaleTestMatchesOnRead)
{
    // With every refresh flag off nothing recharges the data, so reads
    // later than one pulse period after the write are stale. onRead()
    // must count a violation exactly when the snapshot says stale.
    const AcceleratorConfig config = testAcceleratorEdram();
    RefreshControllerSim controller(config.buffer, RefreshPolicy::PerBank,
                                    config.frequencyHz, 45e-6);
    const BankAllocation allocation =
        allocateBanks(config.buffer, 1000, 1000, 1000);
    controller.beginLayer(allocation, {false, false, false}, false, 0.0);
    controller.onWrite(DataType::Input, 0.0);
    const double period = controller.pulsePeriod();
    std::uint64_t stale_reads = 0;
    for (const double age : {0.5, 0.999, 1.0, 1.0 + 1e-6, 1.5, 4.0}) {
        const double now = age * period;
        controller.advanceTo(now);
        const bool stale =
            controller.staleTest(DataType::Input).stale(now, 0.0);
        const std::uint64_t before = controller.violations();
        controller.onRead(DataType::Input, now, 0.0);
        EXPECT_EQ(controller.violations() - before, stale ? 1u : 0u)
            << "read at " << age << " periods";
        stale_reads += stale ? 1 : 0;
    }
    EXPECT_EQ(stale_reads, 3u);
    EXPECT_EQ(controller.refreshOps(), 0u);
}

} // namespace
} // namespace rana
