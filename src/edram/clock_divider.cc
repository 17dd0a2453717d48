/**
 * @file
 * Implementation of the programmable clock divider.
 */

#include "edram/clock_divider.hh"

#include <cmath>

#include "util/logging.hh"

namespace rana {

ProgrammableClockDivider::ProgrammableClockDivider(double reference_hz)
    : referenceHz_(reference_hz)
{
    RANA_ASSERT(reference_hz > 0.0,
                "reference clock frequency must be positive");
}

void
ProgrammableClockDivider::setInterval(double interval_seconds)
{
    RANA_ASSERT(interval_seconds > 0.0,
                "refresh interval must be positive");
    const double cycles = interval_seconds * referenceHz_;
    RANA_ASSERT(cycles >= 1.0,
                "refresh interval shorter than one reference cycle");
    divideRatio_ = static_cast<std::uint64_t>(std::floor(cycles));
}

std::uint64_t
ProgrammableClockDivider::pulsesDuring(double duration_seconds) const
{
    if (duration_seconds <= 0.0)
        return 0;
    return static_cast<std::uint64_t>(
        std::floor(duration_seconds / pulsePeriod()));
}

} // namespace rana
