/**
 * @file
 * Tests of the benchmark's own logic: the seeded generators, op
 * accounting and span attribution. The percentile, tail rule and
 * merge of processes are tested in test_run.py.
 *
 *   cmake --build .bench_build --target perfbench_selftest
 *   .bench_build/perfbench_selftest
 */
#include <gtest/gtest.h>

#include <set>

#include "generator.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench {
namespace {

template <typename Op, typename Gen>
std::vector<Op>
draw(Gen gen, std::uint64_t seed, SeedStream stream, std::uint64_t n)
{
    std::vector<Op> ops;
    for (std::uint64_t i = 0; i < n; ++i)
        ops.push_back(gen(seed, stream, i));
    return ops;
}

TEST(Generator, SameSeedSameOps)
{
    EXPECT_EQ(draw<CompileOp>(compileOp, 7, SeedStream::Tuning, 200),
              draw<CompileOp>(compileOp, 7, SeedStream::Tuning, 200));
    EXPECT_EQ(draw<CampaignOp>(campaignOp, 7, SeedStream::Tuning, 40),
              draw<CampaignOp>(campaignOp, 7, SeedStream::Tuning, 40));
    EXPECT_EQ(draw<ServeOp>(serveOp, 7, SeedStream::Tuning, 40),
              draw<ServeOp>(serveOp, 7, SeedStream::Tuning, 40));
    EXPECT_EQ(serveConfig(7, SeedStream::Tuning, 1),
              serveConfig(7, SeedStream::Tuning, 1));
}

TEST(Generator, DifferentSeedsDifferentOps)
{
    for (std::uint64_t seed = 1; seed < 6; ++seed) {
        EXPECT_NE(draw<CompileOp>(compileOp, seed, SeedStream::Tuning, 80),
                  draw<CompileOp>(compileOp, seed + 1, SeedStream::Tuning,
                                  80));
        EXPECT_NE(draw<CampaignOp>(campaignOp, seed, SeedStream::Tuning, 4),
                  draw<CampaignOp>(campaignOp, seed + 1,
                                   SeedStream::Tuning, 4));
        EXPECT_NE(serveConfig(seed, SeedStream::Tuning, 0),
                  serveConfig(seed + 1, SeedStream::Tuning, 0));
    }
}

TEST(Generator, HeldOutStreamDiffersFromTuning)
{
    for (std::uint64_t seed = 1; seed < 6; ++seed) {
        EXPECT_NE(draw<CompileOp>(compileOp, seed, SeedStream::Tuning, 80),
                  draw<CompileOp>(compileOp, seed, SeedStream::HeldOut, 80));
        EXPECT_NE(serveConfig(seed, SeedStream::Tuning, 0),
                  serveConfig(seed, SeedStream::HeldOut, 0));
    }
}

TEST(Generator, EveryBlockHoldsEachClassOnce)
{
    const auto compile = draw<CompileOp>(compileOp, 3, SeedStream::Tuning,
                                         2 * kCompileBlock);
    for (unsigned block = 0; block < 2; ++block) {
        std::set<std::tuple<unsigned, unsigned, bool>> classes;
        unsigned guarded = 0;
        for (unsigned i = 0; i < kCompileBlock; ++i) {
            const CompileOp &op = compile[block * kCompileBlock + i];
            classes.insert({op.network, op.design, op.autoDataflow});
            guarded += op.guarded ? 1 : 0;
            EXPECT_TRUE(op.design < 6 || op.banks == 0);
        }
        EXPECT_EQ(classes.size(), kCompileBlock);
        EXPECT_EQ(guarded, kCompileBlock / 4);
    }
    const auto campaign = draw<CampaignOp>(campaignOp, 3,
                                           SeedStream::Tuning, 8);
    for (unsigned block = 0; block < 2; ++block) {
        std::set<unsigned> models;
        for (unsigned i = 0; i < kCampaignBlock; ++i) {
            const CampaignOp &op = campaign[block * kCampaignBlock + i];
            models.insert(op.model);
            EXPECT_GE(op.trials, 16u);
            EXPECT_LE(op.trials, 32u);
        }
        EXPECT_EQ(models.size(), kCampaignBlock);
    }
}

TEST(Generator, ServeConfigsCoverAllNetworks)
{
    for (unsigned c = 0; c < kServeConfigs; ++c) {
        const ServeConfigDraw config = serveConfig(5, SeedStream::Tuning, c);
        std::set<unsigned> networks;
        for (const TenantDraw &tenant : config.tenants)
            networks.insert(tenant.network);
        EXPECT_EQ(networks.size(), 4u);
        EXPECT_GE(config.durationSeconds, 20.0);
    }
}

TEST(Median, OddAndEvenSamples)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(OpTally, FailedOpsCountAgainstAttempted)
{
    OpTally tally;
    tally.record(true);
    tally.record(false, "op 1: mismatch");
    tally.record(true);
    EXPECT_EQ(tally.attempted(), 3u);
    EXPECT_EQ(tally.failed(), 1u);
    EXPECT_FALSE(tally.correct());
    ASSERT_EQ(tally.reasons().size(), 1u);
    EXPECT_EQ(tally.reasons()[0], "op 1: mismatch");
}

TEST(OpTally, RunCheckFailureMakesRunIncorrect)
{
    OpTally tally;
    tally.record(true);
    EXPECT_TRUE(tally.correct());
    tally.failCheck("scalar trials differ");
    EXPECT_EQ(tally.failed(), 0u);
    EXPECT_FALSE(tally.correct());
}

TEST(Attribution, SelfTimeSubtractsChildCover)
{
    // op [0, 10] with children [1, 4] and [3, 6]: the cover is [1, 6].
    std::vector<Span> spans = {
        {"op", 0, -1, 0.0, 10.0},
        {"sched.schedule", 0, 0, 1.0, 4.0},
        {"sim.execute", 0, 0, 3.0, 6.0},
        {"setup", 0, -1, 20.0, 30.0},
        {"serving.prepare", 0, 3, 21.0, 29.0},
    };
    const std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 5.0);
    EXPECT_DOUBLE_EQ(self[3], 2.0);
    const Attribution where = attribute(spans);
    EXPECT_DOUBLE_EQ(where.opSeconds, 10.0);
    EXPECT_DOUBLE_EQ(where.unattributedSeconds, 5.0);
    EXPECT_EQ(where.layers.count("serving.prepare"), 0u);
    EXPECT_DOUBLE_EQ(where.layers.at("sched.schedule").selfSeconds, 3.0);
}

} // namespace
} // namespace perfbench
