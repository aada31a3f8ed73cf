/**
 * @file
 * Small helpers for reporting speedups the way the paper does.
 *
 * The paper reports per-benchmark speedup of a machine with value
 * prediction relative to the *same* machine without it, plus an "avg"
 * column that is the arithmetic mean of the per-benchmark speedup gains.
 */

#ifndef VPSIM_CORE_SPEEDUP_HPP
#define VPSIM_CORE_SPEEDUP_HPP

#include <vector>

#include "common/types.hpp"

namespace vpsim
{

/** Arithmetic mean of @p values (0 when empty). */
double arithmeticMean(const std::vector<double> &values);

/**
 * Speedup of value prediction from the cycle counts of the VP-off and
 * VP-on runs of one machine: base / vp, or 1.0 when @p vp_cycles is 0
 * (an empty trace).
 */
double vpSpeedup(Cycle base_cycles, Cycle vp_cycles);

} // namespace vpsim

#endif // VPSIM_CORE_SPEEDUP_HPP
