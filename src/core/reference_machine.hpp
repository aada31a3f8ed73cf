/**
 * @file
 * Golden-reference models for the Section 3 ideal machine and the
 * Section 5 pipeline.
 *
 * Deliberately naive, single-purpose re-implementations, used by the
 * `--cross-check` differential mode and by differential fuzzing: a
 * deterministic sample of grid cells is re-simulated here and any
 * cycle-count or statistic divergence fails the run. The value of a
 * reference is its *independence from the optimized implementation's
 * structure*, not its speed.
 *
 * The ideal-machine reference:
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
 *
 * The pipeline reference is a polling cycle loop, kept naive. The
 * primary model fixes each instruction's issue, execute and commit
 * cycles at dispatch, in program order; this one discovers them cycle
 * by cycle:
 *
 *  - one loop for every value-prediction flavour, chosen by runtime
 *    `if`s (no VpPath template);
 *  - the in-flight instructions live in a std::deque in program order,
 *    and every cycle scans all of them: each unexecuted entry re-reads
 *    its producers to capture ready times, then tries to issue and to
 *    finish (no per-cycle issue counts, no precomputed cycles);
 *  - the window load is recounted every cycle (no counter), and a
 *    squash pops the wrong-path entries it finds behind the branch;
 *  - the dispatch-time predictor update is predict() then update(), not
 *    the classifier's fused predictAndTrain().
 *
 * Memory is O(window), not O(trace), so a cross-check at default sizes
 * stays inside the figure's own footprint. Like the ideal reference, it
 * shares the components with the primary model
 * (core/pipeline_components.hpp): the front ends, the BTB, the value
 * predictors and the §4 InterleavedVpTable. It checks scheduling —
 * wakeup, issue width, reissue penalties, squash, the fetch gate and
 * commit — not those components.
 */

#ifndef VPSIM_CORE_REFERENCE_MACHINE_HPP
#define VPSIM_CORE_REFERENCE_MACHINE_HPP

#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"

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

/** Naive re-simulation of runPipelineMachine() (same result contract). */
PipelineResult runReferencePipelineMachine(TraceSpan records,
                                           const PipelineConfig &config);

/** Naive re-computation of pipelineVpSpeedup(). */
double referencePipelineVpSpeedup(TraceSpan records,
                                  const PipelineConfig &config);

} // namespace vpsim

#endif // VPSIM_CORE_REFERENCE_MACHINE_HPP
