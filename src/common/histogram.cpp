#include "common/histogram.hpp"

#include <sstream>

#include "common/logging.hpp"

namespace vpsim
{

Histogram::Histogram(std::vector<std::uint64_t> upper_bounds)
    : bounds(std::move(upper_bounds)),
      counts(bounds.size() + 1, 0)
{
    fatalIf(bounds.empty(), "Histogram needs at least one bucket bound");
    for (std::size_t i = 1; i < bounds.size(); ++i)
        fatalIf(bounds[i] <= bounds[i - 1],
                "Histogram bounds must be strictly ascending");
}

std::uint64_t
Histogram::bucketCount(std::size_t index) const
{
    panicIf(index >= counts.size(), "Histogram bucket index out of range");
    return counts[index];
}

double
Histogram::bucketFraction(std::size_t index) const
{
    if (total == 0)
        return 0.0;
    return static_cast<double>(bucketCount(index)) /
           static_cast<double>(total);
}

std::string
Histogram::bucketLabel(std::size_t index) const
{
    panicIf(index >= counts.size(), "Histogram bucket index out of range");
    std::ostringstream oss;
    if (index == bounds.size()) {
        oss << ">=" << bounds.back() + 1;
    } else {
        const std::uint64_t lo = index == 0 ? 0 : bounds[index - 1] + 1;
        const std::uint64_t hi = bounds[index];
        if (lo == hi)
            oss << lo;
        else
            oss << lo << "-" << hi;
    }
    return oss.str();
}

double
Histogram::mean() const
{
    if (total == 0)
        return 0.0;
    // One rounding: the integer sum is exact, and converting it to
    // long double is too (64-bit mantissa).
    return static_cast<double>(static_cast<long double>(sampleSum) /
                               static_cast<long double>(total));
}

void
Histogram::merge(const Histogram &other)
{
    panicIf(bounds != other.bounds,
            "Histogram::merge requires identical bucket bounds");
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    total += other.total;
    fatalIf(__builtin_add_overflow(sampleSum, other.sampleSum, &sampleSum),
            "Histogram sample sum overflows 64 bits");
}

} // namespace vpsim
