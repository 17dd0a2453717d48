#include "stats.hh"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    if (values.size() % 2 == 1)
        return values[mid];
    const double upper = values[mid];
    return (*std::max_element(values.begin(), values.begin() + mid) +
            upper) /
           2.0;
}

void
OpTally::record(bool ok, const std::string &reason)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (reasons_.size() < 8)
        reasons_.push_back(reason);
}

void
OpTally::failCheck(const std::string &reason)
{
    checksOk_ = false;
    if (reasons_.size() < 8)
        reasons_.push_back(reason);
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t hash)
{
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
exact(double value)
{
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", value);
    return text;
}

} // namespace perfbench
