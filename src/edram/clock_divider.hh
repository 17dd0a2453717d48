/**
 * @file
 * Programmable clock divider of the refresh-optimized eDRAM
 * controller (Figure 14).
 *
 * The divider takes the accelerator's reference clock and produces a
 * refresh pulse whose period is programmed to the tolerable
 * retention time obtained from the retention-aware training method.
 * Because the divider counts whole reference cycles, the realized
 * pulse period is the largest integer multiple of the clock period
 * that does not exceed the requested interval (rounding up would
 * over-stretch the refresh interval and violate retention).
 */

#ifndef RANA_EDRAM_CLOCK_DIVIDER_HH_
#define RANA_EDRAM_CLOCK_DIVIDER_HH_

#include <cstdint>

namespace rana {

/** Integer divider from a reference clock to refresh pulses. */
class ProgrammableClockDivider
{
  public:
    /** @param reference_hz accelerator reference clock frequency. */
    explicit ProgrammableClockDivider(double reference_hz);

    /**
     * Program the divider for a refresh pulse period of at most
     * `interval_seconds`. @pre the interval covers at least one
     * reference cycle.
     */
    void setInterval(double interval_seconds);

    /** Programmed divide ratio in reference cycles. */
    std::uint64_t divideRatio() const { return divideRatio_; }

    /** Realized pulse period in seconds. */
    double pulsePeriod() const
    {
        return static_cast<double>(divideRatio_) / referenceHz_;
    }

    /**
     * Number of refresh pulses emitted in a window of
     * `duration_seconds` starting aligned to a pulse (the pulse at
     * time zero is not counted; data written at the start of the
     * window is fresh).
     */
    std::uint64_t pulsesDuring(double duration_seconds) const;

  private:
    double referenceHz_;
    std::uint64_t divideRatio_ = 1;
};

} // namespace rana

#endif // RANA_EDRAM_CLOCK_DIVIDER_HH_
