/**
 * @file
 * The three workloads, each driven through the library's public API
 * in the same order as the command-line tool it models.
 */
#include <chrono>
#include <cmath>
#include <sstream>

#include "bench.hh"
#include "core/design_point.hh"
#include "core/experiments.hh"
#include "edram/guard_policy.hh"
#include "nn/model_zoo.hh"
#include "robust/fault_campaign.hh"
#include "robust/sweep_shard.hh"
#include "sched/config_io.hh"
#include "sched/eval_cache.hh"
#include "serving/serving.hh"
#include "util/stats.hh"

namespace perfbench {

namespace {

using namespace rana;

GuardPolicySpec
guardSpec(unsigned policy)
{
    static constexpr GuardPolicyKind kKinds[3] = {
        GuardPolicyKind::Permanent, GuardPolicyKind::Hysteresis,
        GuardPolicyKind::Binned};
    GuardPolicySpec spec;
    spec.kind = kKinds[policy % 3];
    return spec;
}

std::vector<NetworkModel>
loadNetworks()
{
    std::vector<NetworkModel> networks;
    for (const char *name : kNetworks)
        networks.push_back(makeBenchmarkChecked(name).value());
    return networks;
}

/** Every simulated field of a schedule, at full precision. */
std::string
scheduleFingerprint(const NetworkSchedule &schedule)
{
    std::ostringstream out;
    out << writeConfigString(toConfigRecord(schedule));
    for (const LayerSchedule &layer : schedule.layers) {
        out << layer.layerName << " " << layer.counts.macOps << " "
            << layer.counts.bufferAccesses << " "
            << layer.counts.refreshOps << " " << layer.counts.ddrAccesses
            << " " << exact(layer.energy.computing) << " "
            << exact(layer.energy.bufferAccess) << " "
            << exact(layer.energy.refresh) << " "
            << exact(layer.energy.offChipAccess) << "\n";
    }
    out << exact(schedule.totalSeconds()) << "\n";
    return out.str();
}

std::string
executionFingerprint(const ExecutionResult &result)
{
    std::ostringstream out;
    out << result.counts.macOps << " " << result.counts.bufferAccesses
        << " " << result.counts.refreshOps << " "
        << result.counts.ddrAccesses << " "
        << exact(result.energy.computing) << " "
        << exact(result.energy.bufferAccess) << " "
        << exact(result.energy.refresh) << " "
        << exact(result.energy.offChipAccess) << " "
        << exact(result.seconds) << " " << result.violations << " "
        << result.guardTrips << " " << result.guardBanksReenabled << " "
        << result.guardFallbackRefreshOps << "\n";
    return out.str();
}

// ---------------------------------------------------------------- compile

/**
 * rana_compile --verify: schedule, simulate, then write, parse and
 * rebuild the configuration artifact.
 */
class CompileWorkload : public Workload
{
  public:
    /** Materialise one design point per op class. */
    void setup(Run &run) override
    {
        networks_ = loadNetworks();
        const std::vector<DesignPoint> daDianNao =
            daDianNaoDesigns(retention_);
        designs_.clear();
        for (unsigned cls = 0; cls < kCompileBlock; ++cls) {
            const CompileOp shape = compileClass(cls);
            DesignPoint design;
            if (shape.design < 6) {
                DesignPointParams params;
                if (shape.banks != 0)
                    params.edramBanks = shape.banks;
                design = makeDesignPoint(
                    static_cast<DesignKind>(shape.design), retention_,
                    params);
            } else {
                design = daDianNao[shape.design - 6];
            }
            design.options.jobs = run.jobs;
            if (shape.autoDataflow)
                design.options.dataflows.assign(allDataflows().begin(),
                                                allDataflows().end());
            designs_.push_back(std::move(design));
        }
    }

    std::string runOp(Run &run, std::uint64_t index,
                      std::int64_t op_span) override
    {
        const CompileOp op = compileOp(run.args.seed, run.args.stream,
                                       run.args.opIndex(index));
        const NetworkModel &network = networks_[op.network];
        const DesignPoint &design = designs_[op.cls];

        Result<NetworkSchedule> schedule = makeError(
            ErrorCode::InvalidArgument, "not scheduled");
        {
            ScopedSpan span(run.tracer, "sched.schedule", op.id, op_span);
            schedule = scheduleNetwork(design.config, network,
                                       design.options);
        }
        if (!schedule.ok())
            return "schedule: " + schedule.error().describe();
        const EvalCache::Stats cache = EvalCache::global().stats();
        run.sums["sched.evaluations"] += static_cast<double>(cache.misses);
        run.sums["sched.cache_hits"] += static_cast<double>(cache.hits);
        run.sums["sched.cache_lookups"] +=
            static_cast<double>(cache.hits + cache.misses);

        Result<std::unique_ptr<GuardPolicy>> policy =
            makeGuardPolicy(guardSpec(op.guardPolicy),
                            design.config.buffer, retention_,
                            design.failureRate, 1);
        if (!policy.ok())
            return "guard policy: " + policy.error().describe();
        ReliabilityGuard guard(design.options.refreshIntervalSeconds,
                               std::move(policy).value());
        // A guarded op runs under a scan stall, so the guard has
        // overages to cover (as `rana_faultsim --stall --guard`).
        TimingFaults faults;
        if (op.guarded)
            faults.scanStallSeconds = kGuardStallSeconds;
        Result<ExecutionResult> execution = makeError(
            ErrorCode::InvalidArgument, "not executed");
        {
            ScopedSpan span(run.tracer, "sim.execute", op.id, op_span);
            execution = executeScheduleChecked(
                design, network, schedule.value(), faults,
                op.guarded ? &guard : nullptr);
        }
        if (!execution.ok())
            return "execute: " + execution.error().describe();
        const ExecutionResult &executed = execution.value();
        run.sums["sim.refresh_ops"] +=
            static_cast<double>(executed.counts.refreshOps);
        run.sums["sim.model_seconds"] += executed.seconds;
        run.sums["sim.violations"] +=
            static_cast<double>(executed.violations);
        run.sums["edram.guard_trips"] +=
            static_cast<double>(executed.guardTrips);

        Result<NetworkSchedule> rebuilt = makeError(
            ErrorCode::InvalidArgument, "not rebuilt");
        {
            ScopedSpan span(run.tracer, "config_io.roundtrip", op.id,
                            op_span);
            const std::string text =
                writeConfigString(toConfigRecord(schedule.value()));
            Result<NetworkConfigRecord> record =
                readConfigStringChecked(text);
            if (!record.ok())
                return "config parse: " + record.error().describe();
            rebuilt = rebuildScheduleChecked(design.config, network,
                                             record.value());
        }
        if (!rebuilt.ok())
            return "config rebuild: " + rebuilt.error().describe();

        const std::string compiled = scheduleFingerprint(schedule.value());
        run.digests.push_back(
            fnv1a(executionFingerprint(executed), fnv1a(compiled)));
        run.digestLines.push_back(describe(op));
        if (scheduleFingerprint(rebuilt.value()) != compiled)
            return "rebuilt schedule differs from the compiled one";
        if (executed.violations != 0)
            return std::to_string(executed.violations) +
                   " retention violations";
        return "";
    }

    void finish(Run &) override {}
    std::uint64_t blockSize() const override { return kCompileBlock; }
    unsigned setupRepeats() const override { return 51; }

  private:
    static constexpr double kGuardStallSeconds = 0.002;

    const RetentionDistribution retention_ =
        RetentionDistribution::typical65nm();
    std::vector<NetworkModel> networks_;
    /** Indexed by op class. */
    std::vector<DesignPoint> designs_;
};

// --------------------------------------------------------------- campaign

/** Stand-in scale shared with ServingConfig and the sweep-shard bench. */
DatasetConfig
standInDataset(std::uint64_t seed)
{
    const ServingConfig serving;
    DatasetConfig dataset = serving.dataset;
    dataset.seed = seed;
    return dataset;
}

TrainerConfig
standInTrainer(std::uint64_t seed)
{
    const ServingConfig serving;
    TrainerConfig trainer = serving.trainer;
    trainer.seed = seed;
    return trainer;
}

/** A report's bytes with the wall-clock fields cleared. */
std::string
canonicalCellReport(FaultCampaignReport report)
{
    report.trialSeconds = 0.0;
    report.trialsPerSecond = 0.0;
    return serializeCellReport(report);
}

/**
 * rana_faultsim's runFaultCampaign, composed from its public phases
 * so each phase is timed: simulate, dataset, pretrain, retrain,
 * trials.
 */
class CampaignWorkload : public Workload
{
  public:
    void setup(Run &) override
    {
        networks_ = loadNetworks();
        base_ = makeDesignPoint(DesignKind::RanaE5, retention_);
    }

    std::string runOp(Run &run, std::uint64_t index,
                      std::int64_t op_span) override
    {
        const CampaignOp op = campaignOp(run.args.seed, run.args.stream,
                                         run.args.opIndex(index));
        const auto kind = static_cast<MiniModelKind>(op.model);
        const NetworkModel &network = networks_[op.model];
        DesignPoint design = base_;
        design.failureRate = op.failureRate;
        design.options.refreshIntervalSeconds = op.refreshIntervalSeconds;
        design.options.jobs = run.jobs;
        const FaultCampaignConfig config =
            FaultCampaignConfigBuilder()
                .trials(op.trials)
                .seed(op.trialSeed)
                .jobs(run.jobs)
                .model(kind)
                .dataset(standInDataset(op.datasetSeed))
                .trainer(standInTrainer(op.trainerSeed))
                .retention(retention_)
                .build();

        Result<CampaignExposures> exposures = makeError(
            ErrorCode::InvalidArgument, "not simulated");
        {
            ScopedSpan span(run.tracer, "sim.exposures", op.id, op_span);
            exposures = simulateExposures(design, network, config);
        }
        if (!exposures.ok())
            return "exposures: " + exposures.error().describe();
        std::unique_ptr<RetentionAwareTrainer> trainer;
        {
            ScopedSpan span(run.tracer, "train.dataset", op.id, op_span);
            trainer = std::make_unique<RetentionAwareTrainer>(
                kind, config.dataset, config.trainer);
        }
        {
            ScopedSpan span(run.tracer, "train.pretrain", op.id, op_span);
            trainer->pretrain();
        }
        CampaignModel model;
        {
            ScopedSpan span(run.tracer, "train.retrain", op.id, op_span);
            model = prepareCampaignModel(*trainer, config,
                                         design.failureRate);
        }
        Result<FaultCampaignReport> report = makeError(
            ErrorCode::InvalidArgument, "not run");
        {
            ScopedSpan span(run.tracer, "robust.trials", op.id, op_span);
            report = runPreparedCampaign(design, exposures.value(), model,
                                         config);
        }
        if (!report.ok())
            return "trials: " + report.error().describe();

        const FaultCampaignReport &result = report.value();
        run.sums["train.baseline_accuracy"] += model.baselineAccuracy;
        run.sums["robust.trials"] += static_cast<double>(op.trials);
        for (const TrialResult &trial : result.trials)
            run.sums["robust.exposed_words"] +=
                static_cast<double>(trial.exposedWords);
        run.digests.push_back(fnv1a(canonicalCellReport(result)));
        run.digestLines.push_back(describe(op));

        if (result.trials.size() != op.trials)
            return "report holds " + std::to_string(result.trials.size()) +
                   " trials, asked for " + std::to_string(op.trials);
        for (const TrialResult &trial : result.trials) {
            if (!(trial.accuracy >= 0.0 && trial.accuracy <= 1.0))
                return "trial accuracy out of [0, 1]";
        }
        if (!(model.baselineAccuracy > 0.0 &&
              model.baselineAccuracy <= 1.0))
            return "baseline accuracy out of (0, 1]";
        if (!kept_ && run.args.part == 0) {
            kept_ = std::make_unique<Kept>(Kept{
                design, std::move(exposures).value(), std::move(model),
                config, canonicalCellReport(result)});
        }
        return "";
    }

    /**
     * Once per run, in part 0: re-run the first op's trials on the
     * scalar reference path (laneBlock = 1); the lane-major kernels
     * must reproduce it.
     */
    void finish(Run &run) override
    {
        if (run.args.part != 0)
            return;
        if (!kept_) {
            run.tally.failCheck("no campaign op completed");
            return;
        }
        FaultCampaignConfig scalar = kept_->config;
        scalar.laneBlock = 1;
        const Result<FaultCampaignReport> report = runPreparedCampaign(
            kept_->design, kept_->exposures, kept_->model, scalar);
        if (!report.ok()) {
            run.tally.failCheck("scalar trials: " +
                                report.error().describe());
        } else if (canonicalCellReport(report.value()) != kept_->report) {
            run.tally.failCheck(
                "scalar (laneBlock=1) report differs from the batched one");
        }
    }

    std::uint64_t blockSize() const override { return kCampaignBlock; }
    unsigned setupRepeats() const override { return 51; }

  private:
    struct Kept
    {
        DesignPoint design;
        CampaignExposures exposures;
        CampaignModel model;
        FaultCampaignConfig config;
        std::string report;
    };

    const RetentionDistribution retention_ =
        RetentionDistribution::typical65nm();
    std::vector<NetworkModel> networks_;
    DesignPoint base_;
    std::unique_ptr<Kept> kept_;
};

// ------------------------------------------------------------------ serve

ServingConfig
servingConfig(const ServeConfigDraw &draw, unsigned jobs)
{
    ServingConfig config;
    config.durationSeconds = draw.durationSeconds;
    config.seed = draw.seed;
    config.jobs = jobs;
    for (std::size_t t = 0; t < draw.tenants.size(); ++t) {
        const TenantDraw &tenant = draw.tenants[t];
        TenantSpec spec;
        spec.name = "tenant" + std::to_string(t);
        spec.network = kNetworks[tenant.network];
        spec.arrival = tenant.closedLoop ? ArrivalKind::ClosedLoop
                                         : ArrivalKind::OpenLoop;
        spec.clients = tenant.clients;
        spec.thinkSeconds = tenant.thinkSeconds;
        spec.guardPolicy = guardSpec(tenant.guardPolicy);
        spec.faultRate = tenant.faultRate;
        config.tenants.push_back(spec);
    }
    return config;
}

/** rana_serve: replays of configurations prepared during set-up. */
class ServeWorkload : public Workload
{
  public:
    void setup(Run &run) override
    {
        sims_.clear();
        reference_.assign(kServeConfigs, "");
        ScopedSpan setup(run.tracer, "setup", 0);
        for (unsigned c = 0; c < kServeConfigs; ++c) {
            const ServingConfig config = servingConfig(
                serveConfig(run.args.seed, run.args.stream,
                            run.args.part * kServeConfigs + c),
                run.jobs);
            ScopedSpan span(run.tracer, "serving.prepare", 0,
                            setup.index());
            Result<ServingSimulation> sim =
                ServingSimulation::prepare(config);
            if (!sim.ok()) {
                run.tally.failCheck("prepare: " + sim.error().describe());
                return;
            }
            sims_.push_back(std::move(sim).value());
        }
    }

    std::string runOp(Run &run, std::uint64_t index,
                      std::int64_t op_span) override
    {
        const ServeOp op = serveOp(run.args.seed, run.args.stream,
                                   run.args.opIndex(index));
        if (op.config >= sims_.size())
            return "configuration was not prepared";
        const auto start = std::chrono::steady_clock::now();
        Result<ServingReport> replay = makeError(
            ErrorCode::InvalidArgument, "not replayed");
        {
            ScopedSpan span(run.tracer, "serving.replay", op.id, op_span);
            replay = sims_[op.config].run(run.jobs);
        }
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        if (!replay.ok())
            return "replay: " + replay.error().describe();
        const ServingReport &report = replay.value();
        std::uint64_t issued = 0, batches = 0;
        for (const TenantServingStats &tenant : report.tenants) {
            issued += tenant.issued;
            batches += tenant.batches;
        }
        run.sums["serving.replay_s"] += seconds;
        run.sums["serving.requests"] +=
            static_cast<double>(report.totalCompleted);
        run.sums["serving.batches"] += static_cast<double>(batches);
        run.sums["serving.issued"] += static_cast<double>(issued);
        run.sums["serving.shed"] += static_cast<double>(report.totalShed);
        run.sums["serving.worst_p99_ms"] += report.worstP99Ms;
        run.sums["serving.throughput_rps"] += report.totalThroughputRps;

        const std::string canonical = canonicalServingJson(report);
        run.digests.push_back(fnv1a(canonical));
        run.digestLines.push_back(describe(op));
        std::string &reference = reference_[op.config];
        if (reference.empty())
            reference = canonical;
        else if (canonical != reference)
            return "replay differs from the configuration's first replay";
        if (report.totalCompleted == 0)
            return "replay completed no requests";
        return "";
    }

    void finish(Run &) override {}
    std::uint64_t blockSize() const override { return kServeConfigs; }
    /** Preparing pretrains eight models; run.py's processes repeat it. */
    unsigned setupRepeats() const override { return 1; }

  private:
    std::vector<ServingSimulation> sims_;
    std::vector<std::string> reference_;
};

} // namespace

std::unique_ptr<Workload>
makeCompileWorkload()
{
    return std::make_unique<CompileWorkload>();
}

std::unique_ptr<Workload>
makeCampaignWorkload()
{
    return std::make_unique<CampaignWorkload>();
}

std::unique_ptr<Workload>
makeServeWorkload()
{
    return std::make_unique<ServeWorkload>();
}

double
modelEnergyRatio(unsigned jobs, std::uint64_t &digest)
{
    const RetentionDistribution retention =
        RetentionDistribution::typical65nm();
    DesignPoint baseline = makeDesignPoint(DesignKind::SramId, retention);
    DesignPoint rana = makeDesignPoint(DesignKind::RanaStarE5, retention);
    baseline.options.jobs = jobs;
    rana.options.jobs = jobs;
    EvalCache::global().clear();
    std::vector<double> ratios;
    std::uint64_t hash = fnv1a("");
    for (const NetworkModel &network : loadNetworks()) {
        const Result<DesignResult> base = runDesignChecked(baseline, network);
        const Result<DesignResult> ours = runDesignChecked(rana, network);
        if (!base.ok() || !ours.ok())
            return 0.0;
        hash = fnv1a(scheduleFingerprint(ours.value().schedule),
                     fnv1a(scheduleFingerprint(base.value().schedule),
                           hash));
        ratios.push_back(ours.value().energy.total() /
                         base.value().energy.total());
    }
    digest = hash;
    return geomean(ratios);
}

} // namespace perfbench
