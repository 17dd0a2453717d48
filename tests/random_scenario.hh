/**
 * @file
 * Seeded random layer/tiling scenarios for the analytics-vs-trace
 * parity suites (SimEquivalence, DataflowParity).
 *
 * A random tiling can overflow a core's local storage or the buffer,
 * so a case draws from its seeded stream until analyzeLayer accepts
 * the scenario, within a fixed budget. Every case then asserts
 * parity instead of skipping; the infeasibility boundary itself is
 * tested separately.
 */

#ifndef RANA_TESTS_RANDOM_SCENARIO_HH_
#define RANA_TESTS_RANDOM_SCENARIO_HH_

#include <cstdint>
#include <optional>
#include <utility>

#include "nn/model_zoo.hh"
#include "sim/pattern_analytics.hh"
#include "util/random.hh"

namespace rana {
namespace test {

struct Scenario
{
    ConvLayerSpec layer;
    Tiling tiling;
    /** 1-based position of the scenario in its seeded stream. */
    int draw = 1;
};

/** One deterministic random layer/tiling draw. */
inline Scenario
randomScenario(Rng &rng)
{
    Scenario s;
    const std::uint32_t k_options[] = {1, 1, 3, 3, 5, 7, 11};
    const std::uint32_t k = k_options[rng.uniformInt(std::uint64_t{7})];
    const std::uint32_t stride =
        1 + static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{2}));
    const std::uint32_t hw = static_cast<std::uint32_t>(
        rng.uniformInt(std::int64_t{k + stride}, 96));
    s.layer = makeConv("rand",
                       static_cast<std::uint32_t>(
                           rng.uniformInt(std::int64_t{1}, 256)),
                       hw,
                       static_cast<std::uint32_t>(
                           rng.uniformInt(std::int64_t{1}, 256)),
                       k, stride, k / 2);
    const std::uint32_t tilings[] = {1, 2, 4, 8, 16, 32};
    s.tiling.tm = tilings[rng.uniformInt(std::uint64_t{5})];
    s.tiling.tn = tilings[rng.uniformInt(std::uint64_t{6})];
    s.tiling.tr = tilings[rng.uniformInt(std::uint64_t{5})];
    s.tiling.tc = tilings[rng.uniformInt(std::uint64_t{5})];
    return s;
}

/** Rng seed of the scenario stream of parity case `seed`. */
inline std::uint64_t
scenarioSeed(int seed)
{
    return static_cast<std::uint64_t>(seed) * 7919;
}

/** Draws a parity case may take before it fails. */
constexpr int kMaxScenarioDraws = 64;

/** A feasible scenario with its analysis. */
struct FeasibleScenario
{
    Scenario scenario;
    LayerAnalysis analysis;
};

/**
 * The first scenario of the stream seeded by `seed` that `analyze`
 * (Scenario -> LayerAnalysis) reports feasible, or nullopt when none
 * of the first kMaxScenarioDraws is. A feasible first draw is used
 * as is; only an infeasible one moves the case further down its
 * stream.
 */
template <typename Analyze>
std::optional<FeasibleScenario>
feasibleScenario(int seed, Analyze analyze)
{
    Rng rng(scenarioSeed(seed));
    for (int draw = 1; draw <= kMaxScenarioDraws; ++draw) {
        Scenario s = randomScenario(rng);
        s.draw = draw;
        LayerAnalysis analysis = analyze(s);
        if (analysis.feasible)
            return FeasibleScenario{s, std::move(analysis)};
    }
    return std::nullopt;
}

} // namespace test
} // namespace rana

#endif // RANA_TESTS_RANDOM_SCENARIO_HH_
