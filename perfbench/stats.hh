/**
 * @file
 * Medians, op accounting and output digests of one process.
 */
#ifndef PERFBENCH_STATS_HH_
#define PERFBENCH_STATS_HH_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Median of a sample (the mean of the middle two when even); 0 if empty. */
double median(std::vector<double> values);

/** Attempted and failed ops of one run. */
class OpTally
{
  public:
    /**
     * Count one attempted op; a failed op is recorded with the
     * reason it failed (the first few reasons are kept for the log).
     */
    void record(bool ok, const std::string &reason = "");
    /** A run-level check (outside the timed ops) failed. */
    void failCheck(const std::string &reason);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** Every op and every run-level check passed. */
    bool correct() const { return failed_ == 0 && checksOk_; }
    const std::vector<std::string> &reasons() const { return reasons_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool checksOk_ = true;
    std::vector<std::string> reasons_;
};

/** 64-bit FNV-1a, for output digests. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/** A double at full round-trip precision. */
std::string exact(double value);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH_
