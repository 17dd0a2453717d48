/**
 * @file
 * Trial-batching harness: the batched (trial-major, lane-block)
 * corrupted-forward path of the fault campaign against the per-trial
 * reference, on one prepared campaign cell.
 *
 * Prepares one RANA(E-5) campaign cell on AlexNet (shared exposures
 * and pretrained model), then runs the identical prepared campaign
 * at laneBlock=1 and at the default block. laneBlock=1 runs one
 * trial per forward pass, with the conv layers vectorized across
 * the test images (sample lanes), so it is not a scalar path: the
 * batched_speedup sample (batched over per-trial trials/s) has
 * measured 0.74-1.27x. The batched report
 * must be bit-identical to the per-trial one — any accuracy
 * difference is fatal, batching is a speed knob only.
 */

#include "harness.hh"

#include <chrono>
#include <cmath>

#include "robust/fault_campaign.hh"
#include "util/logging.hh"

namespace {

using namespace rana;

void
runCampaignBatch(rana::bench::BenchContext &ctx)
{
    using namespace rana::bench;

    const std::uint32_t trials = ctx.trials > 0 ? ctx.trials : 32;
    DatasetConfig dataset;
    dataset.trainSamples = 256;
    dataset.testSamples = 128;
    dataset.imageSize = 12;
    dataset.numClasses = 4;
    TrainerConfig trainer_cfg;
    trainer_cfg.pretrainEpochs = 6;
    trainer_cfg.retrainEpochs = 2;
    trainer_cfg.evalRepeats = 2;
    FaultCampaignConfig config = FaultCampaignConfigBuilder()
                                     .trials(trials)
                                     .seed(3)
                                     .dataset(dataset)
                                     .trainer(trainer_cfg)
                                     .build();

    DesignPoint design =
        makeDesignPoint(DesignKind::RanaE5, config.retention);
    design.options.refreshIntervalSeconds = 734e-6;
    design.failureRate = 1e-5;
    const NetworkModel network = makeAlexNet();

    const Result<CampaignExposures> exposures =
        simulateExposures(design, network, config);
    if (!exposures.ok())
        fatal("exposure simulation failed: ",
              exposures.error().message);
    RetentionAwareTrainer trainer(config.model, config.dataset,
                                  config.trainer);
    trainer.pretrain();
    const CampaignModel model =
        prepareCampaignModel(trainer, config, design.failureRate);

    std::cout << design.name << " on " << network.name() << ", one "
              << "prepared cell, " << trials
              << " trials: per-trial (laneBlock=1) vs batched "
              << "(laneBlock=" << kDefaultLaneBlock << ")\n\n";

    double per_trial_tps = 0.0;
    double batched_tps = 0.0;
    double per_trial_mean = 0.0;
    TextTable table("Per-trial vs trial-batched corrupted forwards");
    table.header(
        {"lane block", "wall-clock", "trials/s", "mean accuracy"});
    for (const std::uint32_t lanes : {1u, kDefaultLaneBlock}) {
        config.laneBlock = lanes;
        const auto start = std::chrono::steady_clock::now();
        const Result<FaultCampaignReport> ran = runPreparedCampaign(
            design, exposures.value(), model, config);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                start)
                                .count();
        if (!ran.ok())
            fatal("campaign failed: ", ran.error().message);
        const FaultCampaignReport &report = ran.value();
        const double tps = trials / std::max(wall, 1e-9);
        char wall_s[32], tps_s[32], mean_s[32];
        std::snprintf(wall_s, sizeof(wall_s), "%.3fs", wall);
        std::snprintf(tps_s, sizeof(tps_s), "%.2f", tps);
        std::snprintf(mean_s, sizeof(mean_s), "%.6f",
                      report.meanAccuracy);
        table.row({std::to_string(lanes), wall_s, tps_s, mean_s});
        if (lanes == 1) {
            per_trial_tps = tps;
            per_trial_mean = report.meanAccuracy;
        } else {
            batched_tps = tps;
            // Bit-identity is the contract, not a tolerance: the
            // batched kernels replay the per-trial operation order per
            // accumulator, so the means must match exactly.
            if (report.meanAccuracy != per_trial_mean) {
                fatal("batched campaign diverged from per-trial: mean ",
                      report.meanAccuracy, " != ", per_trial_mean);
            }
        }
    }
    table.print(std::cout);

    const double speedup =
        batched_tps / std::max(per_trial_tps, 1e-9);
    std::cout << "\nbatched speedup: "
              << ratio(speedup) << "x (bit-identical reports)\n";

    ctx.perf("per_trial_trials_per_second", per_trial_tps,
             "trials/s");
    ctx.perf("batched_trials_per_second", batched_tps, "trials/s");
    ctx.perf("batched_speedup", speedup, "x");
}

} // namespace

RANA_BENCH("campaign_batch",
           "Trial batching - batched vs per-trial campaign forwards "
           "(bit-identical)",
           runCampaignBatch);
