/**
 * @file
 * Golden-reference model for the Section 3 ideal machine.
 *
 * A deliberately naive, single-purpose re-implementation of the ideal
 * execution environment, used by the `--cross-check` differential mode:
 * a deterministic sample of grid cells is re-simulated here and any
 * cycle-count or statistic divergence fails the run. The value of the
 * reference is its *independence from the optimized implementation's
 * structure*, not its speed:
 *
 *  - two phases instead of one interleaved loop: phase 1 replays the
 *    classified predictor over the trace and records each producer's
 *    prediction outcome; phase 2 computes the schedule from plain
 *    per-instruction arrays;
 *  - the window constraint reads a full execute-cycle vector (no ring
 *    buffer);
 *  - operand readiness re-derives the last writer per register inside
 *    the scheduling pass (no cached Writer struct).
 *
 * The classified predictor itself is shared with the primary model
 * (re-implementing FCM/stride tables here would dwarf the machine):
 * cross-checking targets scheduling and bookkeeping bugs; predictor
 * counter bugs are covered by the invariant engine instead
 * (docs/VALIDATION.md).
 */

#ifndef VPSIM_CORE_REFERENCE_MACHINE_HPP
#define VPSIM_CORE_REFERENCE_MACHINE_HPP

#include "core/ideal_machine.hpp"

namespace vpsim
{

/**
 * Naive re-simulation of runIdealMachine() (same result contract).
 * Takes a span: the two-phase algorithm needs random access to the
 * whole trace (exec[producer] lookups), so block-at-a-time delivery
 * does not fit it. Callers pass the whole trace they already hold
 * (a captured or loaded record vector).
 */
IdealMachineResult runReferenceIdealMachine(
    TraceSpan records, const IdealMachineConfig &config);

/** Naive re-computation of idealVpSpeedup(). */
double referenceIdealVpSpeedup(TraceSpan records,
                               const IdealMachineConfig &config);

} // namespace vpsim

#endif // VPSIM_CORE_REFERENCE_MACHINE_HPP
