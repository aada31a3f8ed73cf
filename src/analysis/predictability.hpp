/**
 * @file
 * Joint value-predictability x DID analysis (paper §3.3, Figure 3.5).
 *
 * Every dependence arc of the trace-wide DFG is classified by whether its
 * producer's value was correctly predicted by an infinite stride
 * prediction table at that dynamic instance; predictable arcs are further
 * bucketed by their DID. The paper highlights the "predictable and DID >=
 * 4" fraction: those are the dependencies that only a high-bandwidth
 * fetch engine can convert into speedup.
 */

#ifndef VPSIM_ANALYSIS_PREDICTABILITY_HPP
#define VPSIM_ANALYSIS_PREDICTABILITY_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "predictor/value_predictor.hpp"
#include "trace/record.hpp"

namespace vpsim
{

/** Figure 3.5 style joint distribution for one trace. */
struct PredictabilityAnalysis
{
    std::uint64_t totalArcs = 0;
    /** Arcs whose producer value the stride predictor got wrong. */
    double fracUnpredictable = 0.0;
    /** Predictable arcs with DID == 1, 2, 3. */
    double fracPredictableDid1 = 0.0;
    double fracPredictableDid2 = 0.0;
    double fracPredictableDid3 = 0.0;
    /** Predictable arcs with DID >= 4 (the headline fraction). */
    double fracPredictableDid4Plus = 0.0;

    /** All predictable arcs regardless of distance. */
    double
    fracPredictable() const
    {
        return fracPredictableDid1 + fracPredictableDid2 +
               fracPredictableDid3 + fracPredictableDid4Plus;
    }

    /** Predictable arcs too short for a 4-wide fetch to exploit. */
    double
    fracPredictableShort() const
    {
        return fracPredictableDid1 + fracPredictableDid2 +
               fracPredictableDid3;
    }
};

/**
 * Run the joint analysis over @p records, marking arcs with an
 * infinite stride predictor (the paper's choice).
 *
 * @param records The trace, in program order.
 */
PredictabilityAnalysis
analyzePredictability(const std::vector<TraceRecord> &records);

} // namespace vpsim

#endif // VPSIM_ANALYSIS_PREDICTABILITY_HPP
