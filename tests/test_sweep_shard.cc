/**
 * @file
 * Tests of the crash-tolerant sharded sweep engine: byte-identical
 * merges across worker counts, recovery from injected chaos (worker
 * kill, stalled cell, corrupted result frame), retry-exhaustion
 * degradation, and lossless cell-report serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "nn/model_zoo.hh"
#include "obs/metrics_registry.hh"
#include "obs/telemetry.hh"
#include "robust/campaign_sweep.hh"
#include "robust/sweep_shard.hh"
#include "util/logging.hh"

#include "wire_bytes.hh"

namespace rana {
namespace {

DatasetConfig
tinyDataset()
{
    DatasetConfig config;
    config.trainSamples = 256;
    config.testSamples = 128;
    config.imageSize = 12;
    config.numClasses = 4;
    return config;
}

TrainerConfig
tinyTrainer()
{
    TrainerConfig config;
    config.pretrainEpochs = 6;
    config.retrainEpochs = 2;
    config.evalRepeats = 2;
    return config;
}

CampaignSweepConfig
tinySweep()
{
    CampaignSweepConfig config;
    config.failureRates = {0.0, 1e-4};
    config.refreshIntervals = {45e-6, 734e-6};
    config.campaign = FaultCampaignConfigBuilder()
                          .trials(4)
                          .seed(3)
                          .dataset(tinyDataset())
                          .trainer(tinyTrainer())
                          .build();
    return config;
}

DesignPoint
ranaDesign()
{
    return makeDesignPoint(DesignKind::RanaE5,
                           RetentionDistribution::typical65nm());
}

SweepShardConfig
fastShard(unsigned workers)
{
    SweepShardConfig config;
    config.workers = workers;
    config.cellTimeoutMs = 60000;
    config.maxRetries = 2;
    config.backoffBaseMs = 1;
    return config;
}

/** The single-process reference, canonicalized once per suite. */
const std::string &
referenceSweepJson()
{
    static const std::string json = [] {
        Result<CampaignSweepReport> report = runCampaignSweep(
            ranaDesign(), makeAlexNet(), tinySweep());
        RANA_ASSERT(report.ok(), "reference sweep failed");
        return canonicalSweepJson(report.value());
    }();
    return json;
}

TEST(SweepShard, SingleWorkerMatchesInProcessByteForByte)
{
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), fastShard(1));
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    EXPECT_EQ(sharded.value().stats.workers, 1u);
    EXPECT_EQ(sharded.value().stats.cells, 4u);
    EXPECT_EQ(sharded.value().stats.degradedCells, 0u);
}

TEST(SweepShard, MergeIsByteIdenticalAcrossWorkerCounts)
{
    for (unsigned workers : {2u, 4u, 8u}) {
        Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
            ranaDesign(), makeAlexNet(), tinySweep(),
            fastShard(workers));
        ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
        EXPECT_EQ(canonicalSweepJson(sharded.value().report),
                  referenceSweepJson())
            << "diverged at workers=" << workers;
        // More workers than cells forks one per cell, never more.
        EXPECT_LE(sharded.value().stats.workers, 4u);
        EXPECT_EQ(sharded.value().stats.degradedCells, 0u);
    }
}

TEST(SweepShard, RecoversFromChaosKillByteForByte)
{
    SweepShardConfig shard = fastShard(2);
    shard.chaos.killWorker = 0;
    shard.chaos.killAfterCells = 1;
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), shard);
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    const SweepShardStats &stats = sharded.value().stats;
    EXPECT_GE(stats.workerCrashes, 1u);
    EXPECT_GE(stats.retries, 1u);
    EXPECT_EQ(stats.degradedCells, 0u);
}

TEST(SweepShard, RecoversFromStalledCellViaTimeout)
{
    SweepShardConfig shard = fastShard(2);
    shard.cellTimeoutMs = 1500; // stalled attempt dies fast
    shard.chaos.stallCell = 2;
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), shard);
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    const SweepShardStats &stats = sharded.value().stats;
    EXPECT_GE(stats.timeouts, 1u);
    EXPECT_GE(stats.retries, 1u);
    EXPECT_EQ(stats.degradedCells, 0u);
}

TEST(SweepShard, RecoversFromCorruptedResultFrame)
{
    SweepShardConfig shard = fastShard(2);
    shard.chaos.corruptCell = 1;
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), shard);
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    const SweepShardStats &stats = sharded.value().stats;
    EXPECT_GE(stats.corruptFrames, 1u);
    EXPECT_GE(stats.retries, 1u);
    EXPECT_EQ(stats.degradedCells, 0u);
}

TEST(SweepShard, RetryExhaustionDegradesButStaysByteIdentical)
{
    // A permanently stalled first attempt with zero retries forces
    // the degradation path: the cell must run in-process and the
    // merged report must still match.
    SweepShardConfig shard = fastShard(2);
    shard.cellTimeoutMs = 1500;
    shard.maxRetries = 0;
    shard.chaos.stallCell = 0;
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), shard);
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    const SweepShardStats &stats = sharded.value().stats;
    EXPECT_GE(stats.degradedCells, 1u);
    EXPECT_TRUE(stats.degraded());
}

TEST(SweepShard, GuardPolicyComparisonShardsByteForByte)
{
    CampaignSweepConfig config = tinySweep();
    config.failureRates = {1e-4};
    config.refreshIntervals = {734e-6};
    Result<GuardPolicyComparisonReport> reference =
        runGuardPolicyComparison(ranaDesign(), makeAlexNet(),
                                 config);
    ASSERT_TRUE(reference.ok()) << reference.error().describe();

    Result<ShardedComparisonResult> sharded =
        runShardedGuardPolicyComparison(ranaDesign(), makeAlexNet(),
                                        config, fastShard(3));
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalComparisonJson(sharded.value().report),
              canonicalComparisonJson(reference.value()));
    EXPECT_EQ(sharded.value().stats.cells, 3u);
}

TEST(SweepShard, InvalidGridFailsLikeTheInProcessPath)
{
    CampaignSweepConfig config = tinySweep();
    config.failureRates.clear();
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), config, fastShard(2));
    ASSERT_FALSE(sharded.ok());
    EXPECT_EQ(sharded.error().code, ErrorCode::InvalidArgument);
}

TEST(SweepShard, CellReportSerializationRoundTripsBitIdentically)
{
    CampaignSweepConfig config = tinySweep();
    Result<PreparedSweep> plan = PreparedSweep::prepareSweep(
        ranaDesign(), makeAlexNet(), config);
    ASSERT_TRUE(plan.ok()) << plan.error().describe();
    Result<FaultCampaignReport> cell = plan.value().runCell(3);
    ASSERT_TRUE(cell.ok());

    const std::string payload = serializeCellReport(cell.value());
    Result<FaultCampaignReport> reread = parseCellReport(payload);
    ASSERT_TRUE(reread.ok()) << reread.error().describe();
    // Re-serializing the parsed report must reproduce the payload
    // byte for byte — the merge contract in miniature.
    EXPECT_EQ(serializeCellReport(reread.value()), payload);
}

TEST(SweepShard, CellReportParserSurvivesHostileBytes)
{
    const std::string good = [] {
        FaultCampaignReport report;
        report.designName = "d";
        report.trials.resize(1);
        report.exposures.resize(1);
        return serializeCellReport(report);
    }();

    EXPECT_FALSE(parseCellReport("").ok());
    EXPECT_FALSE(parseCellReport("{}").ok());
    EXPECT_FALSE(parseCellReport("[1,2,3]").ok());
    EXPECT_FALSE(parseCellReport("not json at all").ok());
    EXPECT_FALSE(
        parseCellReport(good.substr(0, good.size() / 2)).ok());
    std::string flipped = good;
    flipped[good.size() / 3] ^= 0x40;
    // A flipped byte either still parses (hit a value) or fails
    // cleanly; it must never crash.
    (void)parseCellReport(flipped);

    // An integer that does not fit its field fails instead of
    // wrapping (a wrapped value would re-serialize to other bytes).
    ASSERT_TRUE(parseCellReport(good).ok());
    for (const char *key : {"banks", "bankStart"}) {
        for (const char *value : {"4294967296", "4294967297"}) {
            EXPECT_FALSE(
                parseCellReport(replaceNumberAfter(good, key, value))
                    .ok())
                << key << " = " << value;
        }
    }
}

TEST(SweepShard, WorkerTelemetryMergesDeterministically)
{
    // The cells-completed accounting must close identically at every
    // worker count: on a clean run each of the 4 cells is completed
    // by exactly one worker, so the merged per-worker sum equals the
    // stored-cell count no matter how the grid was partitioned.
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        MetricsRegistry::global().reset();
        Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
            ranaDesign(), makeAlexNet(), tinySweep(),
            fastShard(workers));
        ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
        const MetricsSnapshot snap =
            MetricsRegistry::global().snapshot();
        EXPECT_EQ(counterValue(snap,
                               "worker_cells_completed_total_"
                               "worker_sum"),
                  4u)
            << "diverged at workers=" << workers;
        EXPECT_EQ(counterValue(snap,
                               "worker_cells_completed_total_"
                               "worker_sum"),
                  counterValue(snap, "shard_cells_completed_total"))
            << "diverged at workers=" << workers;
    }
}

TEST(SweepShard, CleanExitDrainsTheFinalTelemetryFrame)
{
    // worker_clean_exits_total is incremented after the Shutdown
    // frame arrives, in the worker's final telemetry export: the
    // counter can only reach the merged snapshot if the coordinator
    // drains that last frame before reaping (the telemetry-loss fix).
    MetricsRegistry::global().reset();
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), fastShard(4));
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    const SweepShardStats &stats = sharded.value().stats;
    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    EXPECT_EQ(counterValue(snap,
                           "worker_clean_exits_total_worker_sum"),
              stats.workers);
    // At least one startup frame and one final frame per worker.
    EXPECT_GE(stats.telemetryFrames, 2u * stats.workers);
    EXPECT_EQ(stats.postmortemDumps, 0u);
}

TEST(SweepShard, CrashedWorkerLeavesAReadablePostmortem)
{
    const std::string dir =
        ::testing::TempDir() + "rana_postmortem_test";
    SweepShardConfig shard = fastShard(2);
    shard.chaos.killWorker = 0;
    shard.chaos.killAfterCells = 1;
    shard.postmortemDir = dir;
    Result<ShardedSweepResult> sharded = runShardedCampaignSweep(
        ranaDesign(), makeAlexNet(), tinySweep(), shard);
    ASSERT_TRUE(sharded.ok()) << sharded.error().describe();
    EXPECT_EQ(canonicalSweepJson(sharded.value().report),
              referenceSweepJson());
    const SweepShardStats &stats = sharded.value().stats;
    ASSERT_EQ(stats.postmortemDumps, 1u);

    std::ifstream in(dir + "/postmortem-worker0-1.json");
    ASSERT_TRUE(in.good()) << "postmortem file missing";
    std::ostringstream text;
    text << in.rdbuf();
    Result<PostmortemReport> report = parsePostmortem(text.str());
    ASSERT_TRUE(report.ok()) << report.error().describe();
    EXPECT_EQ(report.value().worker, 0u);
    EXPECT_EQ(report.value().incident, 1u);
    // The victim usually exits with the chaos-kill code (11), but
    // the coordinator SIGKILLs stragglers it declares dead, so a
    // close race may surface as a signal instead.
    EXPECT_TRUE(report.value().exited || report.value().signaled);
    if (report.value().exited) {
        EXPECT_EQ(report.value().exitCode, 11);
    }
    // The chaos kill fires after one completed cell, so the victim's
    // last-known snapshot and flight ring are non-empty.
    EXPECT_EQ(counterValue(report.value().lastMetrics,
                           "worker_cells_completed_total"),
              1u);
    EXPECT_FALSE(report.value().flight.empty());
}

TEST(SweepShard, NonFiniteCellValuesSurviveTheWire)
{
    FaultCampaignReport report;
    report.designName = "poisoned";
    report.meanAccuracy = std::numeric_limits<double>::quiet_NaN();
    report.worstAccuracy =
        -std::numeric_limits<double>::infinity();
    report.p95Accuracy = std::numeric_limits<double>::infinity();
    Result<FaultCampaignReport> reread =
        parseCellReport(serializeCellReport(report));
    ASSERT_TRUE(reread.ok()) << reread.error().describe();
    EXPECT_TRUE(std::isnan(reread.value().meanAccuracy));
    EXPECT_EQ(reread.value().worstAccuracy,
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(reread.value().p95Accuracy,
              std::numeric_limits<double>::infinity());
}

/**
 * A cell report with every wire field set to a value no other field
 * holds, so a reordered, dropped or swapped key changes the bytes.
 */
FaultCampaignReport
goldenCellReport()
{
    FaultCampaignReport report;
    report.designName = "RANA \"E5\"";
    report.networkName = "AlexNet";
    report.modelName = "mini-alexnet";
    report.baselineAccuracy = 0.8125;
    report.operatingFailureRate = 1e-5;
    TrialResult first;
    first.seed = 18446744073709551557ull;
    first.weightFailureRate = 1.5e-5;
    first.activationFailureRate = 2.5e-6;
    first.exposedBanks = 3;
    first.exposedWords = 4096;
    first.accuracy = 0.75;
    first.relativeAccuracy = 0.1 + 0.2;
    TrialResult second;
    second.seed = 17;
    second.weightFailureRate = 3.5e-5;
    second.activationFailureRate = 4.5e-6;
    second.exposedBanks = 4;
    second.exposedWords = 8192;
    second.accuracy = 0.6875;
    second.relativeAccuracy = 0.84615384615384615;
    report.trials = {first, second};
    LayerExposure exposure;
    exposure.layerName = "conv1";
    exposure.exposureSeconds = {4.5e-5, 7.34e-4, 1.25e-3};
    exposure.observedLifetimeSeconds = {4.0e-5, 6.5e-4, 1.125e-3};
    exposure.banks = {5, 6, 7};
    exposure.words = {4097, 8193, 65537};
    exposure.bankStart = {1, 8, 15};
    report.exposures = {exposure};
    report.meanAccuracy = 0.71875;
    report.worstAccuracy = 0.6875;
    report.meanRelativeAccuracy = 0.88461538461538458;
    report.worstRelativeAccuracy = 0.84615384615384603;
    report.p5Accuracy = 0.690625;
    report.p50Accuracy = 0.71875;
    report.p95Accuracy = 0.746875;
    report.p5RelativeAccuracy = 0.85;
    report.p50RelativeAccuracy = 0.885;
    report.p95RelativeAccuracy = 0.92;
    report.meanWeightFailureRate = 2.5e-5;
    report.meanActivationFailureRate = 3.5e-6;
    report.executionSeconds = 0.0123;
    report.retentionViolations = 42;
    report.refreshOps = 1234567;
    report.trialSeconds = 0.375;
    report.trialsPerSecond = 5.333333333333333;
    report.guarded = true;
    report.guardPolicyName = "escalating";
    ReliabilityGuard::Stats &guard = report.guardStats;
    guard.trips = 9;
    guard.banksReenabled = 11;
    guard.fallbackRefreshOps = 13;
    guard.tripsByType = {19, 23, 29};
    guard.worstObservedLifetimeSeconds = 9.75e-4;
    guard.redisarms = 31;
    guard.escalations = 37;
    guard.cleanIntervals = 41;
    guard.armedRefreshOps = 43;
    return report;
}

TEST(SweepShard, WireBytesMatchGolden)
{
    // The frame payload, then the two canonical comparison forms
    // that wrap it (without the wall-clock fields).
    const FaultCampaignReport report = goldenCellReport();
    const std::string payload = serializeCellReport(report);
    EXPECT_TRUE(matchesGolden(payload, "wire_cell_report.json"));
    Result<FaultCampaignReport> reread = parseCellReport(payload);
    ASSERT_TRUE(reread.ok()) << reread.error().describe();
    EXPECT_EQ(serializeCellReport(reread.value()), payload);

    CampaignSweepReport sweep;
    sweep.designName = "RANA-sweep";
    sweep.networkName = "ResNet";
    sweep.modelName = "mini-resnet";
    sweep.baselineAccuracy = 0.5625;
    sweep.failureRates = {0.0, 1e-4};
    sweep.refreshIntervals = {4.5e-5};
    sweep.cells = {{0.0, 4.5e-5, report}, {1e-4, 4.5e-5, report}};
    EXPECT_TRUE(matchesGolden(canonicalSweepJson(sweep),
                              "wire_canonical_sweep.json"));

    GuardPolicyComparisonReport comparison;
    comparison.designName = "RANA-compare";
    comparison.networkName = "VGG";
    comparison.modelName = "mini-vgg";
    comparison.baselineAccuracy = 0.4375;
    comparison.policyNames = {"permanent", "escalating"};
    comparison.failureRates = {2e-4};
    comparison.refreshIntervals = {7.34e-4};
    comparison.cells = {{"permanent", 2e-4, 7.34e-4, report},
                        {"escalating", 2e-4, 7.34e-4, report}};
    EXPECT_TRUE(matchesGolden(canonicalComparisonJson(comparison),
                              "wire_canonical_comparison.json"));
}

} // namespace
} // namespace rana
