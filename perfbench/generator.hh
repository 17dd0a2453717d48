/**
 * @file
 * Seeded op generators of the three benchmark workloads.
 *
 * The generator is the only place the workload seed is used: the
 * library receives the drawn inputs, never the seed. It uses its
 * own splitmix64 stream, so a change to the library's RNG cannot
 * change which ops a seed selects.
 *
 * Ops are drawn in stratified blocks. Every block holds each op
 * class of its workload exactly once (compile: network x design x
 * dataflow axis; campaign: the four mini models; serve: the prepared
 * configurations) in a seeded order, and the remaining fields are
 * drawn freely. Op cost depends mostly on the class, and a run times
 * whole blocks, so every seed sees the same cost mix and run-to-run
 * spread stays small, while the order and the free fields keep
 * different seeds from replaying one op list.
 */
#ifndef PERFBENCH_GENERATOR_HH_
#define PERFBENCH_GENERATOR_HH_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** splitmix64: a small, fully specified PRNG. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform integer in [0, bound); bound > 0. */
    std::uint64_t below(std::uint64_t bound);

  private:
    std::uint64_t state_;
};

/**
 * Which seed space a run draws from. Tuning happens on `Tuning`;
 * `HeldOut` is a disjoint stream kept for re-checking a claimed
 * gain on inputs no change was tuned against.
 */
enum class SeedStream { Tuning = 0, HeldOut = 1 };

/** The four paper benchmarks, in paper order. */
extern const char *const kNetworks[4];

/** One `compile` op: a rana_compile --verify invocation. */
struct CompileOp
{
    std::uint64_t id = 0;
    /** Op class, 0..kCompileBlock-1; fixes every field below but
     *  the guard policy. */
    unsigned cls = 0;
    /** Index into kNetworks. */
    unsigned network = 0;
    /** 0..5: Table-IV design (DesignKind order); 6..9: DaDianNao. */
    unsigned design = 0;
    /** Fig.-18 eDRAM bank override; 0 keeps the design's default.
     *  A fixed function of (network, design, dataflow axis). */
    std::uint32_t banks = 0;
    /** Search all six dataflows instead of the design's own axis. */
    bool autoDataflow = false;
    /** Attach the ReliabilityGuard to the simulated execution. */
    bool guarded = false;
    /** Guard policy of a guarded op: 0 permanent, 1 hysteresis, 2 binned. */
    unsigned guardPolicy = 0;
    bool operator==(const CompileOp &) const = default;
};

/** One `campaign` op: a rana_faultsim campaign, phase by phase. */
struct CampaignOp
{
    std::uint64_t id = 0;
    /** MiniModelKind order: MiniAlex, MiniVgg, MiniInception, MiniRes. */
    unsigned model = 0;
    double failureRate = 0.0;
    double refreshIntervalSeconds = 0.0;
    std::uint64_t trialSeed = 0;
    std::uint32_t trials = 0;
    /** Trainer and dataset seeds (from a pool of two per model). */
    std::uint64_t trainerSeed = 0;
    std::uint64_t datasetSeed = 0;
    bool operator==(const CampaignOp &) const = default;
};

/** One `serve` op: a replay of one prepared configuration. */
struct ServeOp
{
    std::uint64_t id = 0;
    /** Index of the prepared configuration. */
    unsigned config = 0;
    bool operator==(const ServeOp &) const = default;
};

/** One tenant of a generated serving configuration. */
struct TenantDraw
{
    unsigned network = 0;
    bool closedLoop = false;
    /** 0 permanent, 1 hysteresis, 2 binned. */
    unsigned guardPolicy = 0;
    double faultRate = 0.0;
    /** Closed loop: clients and think time. */
    std::uint32_t clients = 0;
    double thinkSeconds = 0.0;
    bool operator==(const TenantDraw &) const = default;
};

/** One generated serving configuration. */
struct ServeConfigDraw
{
    std::vector<TenantDraw> tenants;
    double durationSeconds = 0.0;
    std::uint64_t seed = 0;
    bool operator==(const ServeConfigDraw &) const = default;
};

/** Op classes per compile block: 4 networks x 10 designs x 2 axes. */
constexpr unsigned kCompileBlock = 80;
/** Op classes per campaign block: the four mini models. */
constexpr unsigned kCampaignBlock = 4;
/** Serving configurations prepared per process. */
constexpr unsigned kServeConfigs = 2;
/** Op-index distance between the parts of a run: a multiple of
 *  every block size, so each part starts on a block boundary. */
constexpr std::uint64_t kPartStride = std::uint64_t{kCompileBlock} << 26;

/** The fields of compile op class `cls` (no id, permanent guard). */
CompileOp compileClass(unsigned cls);
/** The `index`-th compile op of a seed. */
CompileOp compileOp(std::uint64_t seed, SeedStream stream,
                    std::uint64_t index);
/** The `index`-th campaign op of a seed. */
CampaignOp campaignOp(std::uint64_t seed, SeedStream stream,
                      std::uint64_t index);
/** The `index`-th serve op of a seed. */
ServeOp serveOp(std::uint64_t seed, SeedStream stream,
                std::uint64_t index);
/** The `config`-th serving configuration of a seed. */
ServeConfigDraw serveConfig(std::uint64_t seed, SeedStream stream,
                            unsigned config);

/** One-line description of an op, for the digest file. */
std::string describe(const CompileOp &op);
std::string describe(const CampaignOp &op);
std::string describe(const ServeOp &op);

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_HH_
