/**
 * @file
 * The benchmark's run state and the workload interface.
 */
#ifndef PERFBENCH_BENCH_HH_
#define PERFBENCH_BENCH_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "generator.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench {

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    SeedStream stream = SeedStream::Tuning;
    /**
     * Which process of a run this is. Each part draws its own ops
     * (from op index part * kPartStride, and its own serving
     * configurations), so a run's processes cover different inputs
     * of one seed.
     */
    std::uint32_t part = 0;

    /** Generator index of this part's `index`-th op. */
    std::uint64_t opIndex(std::uint64_t index) const
    {
        return part * kPartStride + index;
    }
};

/** State shared by the main loop and the workload of one process. */
struct Run
{
    Run(const Args &args, unsigned jobs)
        : args(args), jobs(jobs), tracer(args.trace)
    {
    }

    Args args;
    /** Worker lanes for every library fan-out (nproc). */
    unsigned jobs;
    Tracer tracer;
    OpTally tally;
    /** Per-layer quantities summed over the run's ops. */
    std::map<std::string, double> sums;
    /** Per-op output digests, in op order. */
    std::vector<std::uint64_t> digests;
    /** Per-op input descriptions, the digests.txt line prefixes. */
    std::vector<std::string> digestLines;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /**
     * Build everything the first op needs from the generated inputs.
     * The main loop calls it several times and times each call; the
     * state of the last call is kept.
     */
    virtual void setup(Run &run) = 0;
    /**
     * Run op `index` under the op span `op_span`. Returns "" when
     * the op and its correctness checks passed, else the reason it
     * failed. Pushes the op's output digest onto run.digests.
     */
    virtual std::string runOp(Run &run, std::uint64_t index,
                              std::int64_t op_span) = 0;
    /** Run-level correctness checks, outside the timed phase. */
    virtual void finish(Run &run) = 0;
    /**
     * Ops per stratified block. A run times whole blocks, at least
     * one, so every run has the same op-class mix and the digest of
     * the first block is comparable between runs.
     */
    virtual std::uint64_t blockSize() const = 0;
    /** Set-up repetitions whose median is setup_s. */
    virtual unsigned setupRepeats() const = 0;
};

std::unique_ptr<Workload> makeCompileWorkload();
std::unique_ptr<Workload> makeCampaignWorkload();
std::unique_ptr<Workload> makeServeWorkload();

/**
 * The modelled Fig.-15 GMEAN: geometric mean over the four networks
 * of RANA*(E-5) total energy over S+ID total energy, on a fixed
 * check set (no seed); `digest` receives the digest of its schedules.
 * Returns 0 when a design fails to compile.
 */
double modelEnergyRatio(unsigned jobs, std::uint64_t &digest);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH_
