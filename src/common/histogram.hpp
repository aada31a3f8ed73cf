/**
 * @file
 * Bucketed histogram used by the DID analyses (paper Figures 3.3-3.5).
 */

#ifndef VPSIM_COMMON_HISTOGRAM_HPP
#define VPSIM_COMMON_HISTOGRAM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hpp"

namespace vpsim
{

/**
 * A histogram over uint64 samples with caller-defined bucket boundaries.
 *
 * Buckets are defined by an ascending list of upper bounds; a sample x falls
 * into the first bucket whose upper bound is >= x. A final implicit
 * overflow bucket catches everything larger than the last bound.
 */
class Histogram
{
  public:
    /**
     * @param upper_bounds Ascending inclusive upper bounds of the buckets.
     */
    explicit Histogram(std::vector<std::uint64_t> upper_bounds);

    /**
     * Record one sample. Inline: the DID sweep adds one sample per
     * dependence arc. Fatal if the exact sample sum overflows 64 bits.
     */
    void
    add(std::uint64_t sample, std::uint64_t weight = 1)
    {
        std::size_t bucket = 0;
        while (bucket < bounds.size() && sample > bounds[bucket])
            ++bucket;
        counts[bucket] += weight;
        total += weight;
        std::uint64_t mass = 0;
        fatalIf(__builtin_mul_overflow(sample, weight, &mass) ||
                    __builtin_add_overflow(sampleSum, mass, &sampleSum),
                "Histogram sample sum overflows 64 bits");
    }

    /** Number of buckets including the overflow bucket. */
    std::size_t numBuckets() const { return counts.size(); }

    /** Raw count in bucket @p index. */
    std::uint64_t bucketCount(std::size_t index) const;

    /** Fraction of all samples in bucket @p index (0 when empty). */
    double bucketFraction(std::size_t index) const;

    /** Human-readable label for bucket @p index, e.g. "4-7" or ">=16". */
    std::string bucketLabel(std::size_t index) const;

    /** Total number of samples recorded. */
    std::uint64_t totalSamples() const { return total; }

    /** Arithmetic mean of all recorded samples. */
    double mean() const;

    /** Merge another histogram with identical bucket bounds. */
    void merge(const Histogram &other);

  private:
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    /** Exact sum of samples; mean() converts it once. */
    std::uint64_t sampleSum = 0;
};

} // namespace vpsim

#endif // VPSIM_COMMON_HISTOGRAM_HPP
