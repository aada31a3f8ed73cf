/**
 * @file
 * The paper's Section 3 "ideal execution environment": a machine limited
 * only by true-data dependencies, a finite instruction window, and an
 * artificial fetch/issue rate — free of control dependencies, name
 * dependencies and structural conflicts (§3.1).
 *
 * Timing model (matching Table 3.2's 4-stage pipeline):
 *   - instruction i is fetched in cycle floor(i / fetchRate) + 1;
 *   - it can execute no earlier than fetch + 2 (decode/issue in between);
 *   - a source operand produced by p is ready in cycle exec(p) + 1, or at
 *     issue when the classified value predictor supplied a correct value,
 *     or in exec(p) + 1 + penalty when the prediction was wrong
 *     (selective reissue of the dependent instruction);
 *   - the window admits at most windowSize in-flight instructions:
 *     exec(i) >= exec(i - windowSize) + 1 (a slot frees at execute);
 *   - all execution latencies are one cycle; predictor tables and
 *     classification counters are unbounded.
 */

#ifndef VPSIM_CORE_IDEAL_MACHINE_HPP
#define VPSIM_CORE_IDEAL_MACHINE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "predictor/factory.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace vpsim
{

/** Which instructions the value predictor covers. */
enum class VpScope
{
    /** Every value-producing instruction (the paper's configuration). */
    AllInstructions,
    /** Loads only — the original LVP proposal of Lipasti et al. [13]. */
    LoadsOnly,
};

/** Whether value prediction under @p scope predicts @p record's value. */
inline bool
vpPredicts(VpScope scope, const TraceRecord &record)
{
    return record.producesValue() &&
           (scope == VpScope::AllInstructions ||
            record.instClass() == InstClass::Load);
}

/** Configuration of one ideal-machine run. */
struct IdealMachineConfig
{
    /** Instructions fetched (and issued) per cycle: 4/8/16/32/40. */
    unsigned fetchRate = 4;
    /** Instruction window entries (paper: 40). */
    unsigned windowSize = 40;
    /** Cycles between fetch and earliest execute (fetch + decode). */
    unsigned frontendLatency = 2;
    /** Cycles lost by a dependent on a value misprediction (paper: 1). */
    unsigned vpPenalty = 1;

    /** Use value prediction at all (off = baseline machine). */
    bool useValuePrediction = false;
    /** Pretend every prediction is correct (Table 3.2's perfect VP). */
    bool perfectValuePrediction = false;
    /** Which raw predictor to classify (paper: stride). */
    PredictorKind predictorKind = PredictorKind::Stride;
    /** Classifier counter width (paper: 2). */
    unsigned counterBits = 2;
    /** Classifier reaction to a wrong raw prediction. */
    MissPolicy missPolicy = MissPolicy::Reset;
    /** Table capacity; 0 = infinite (paper's Section 3 assumption). */
    std::size_t tableCapacity = 0;
    /** Instruction coverage (paper: all value producers). */
    VpScope vpScope = VpScope::AllInstructions;
};

/** Outcome of one ideal-machine run. */
struct IdealMachineResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;

    /** Classified predictions issued / correct / wrong. */
    std::uint64_t predictionsMade = 0;
    std::uint64_t predictionsCorrect = 0;
    std::uint64_t predictionsWrong = 0;
    /**
     * Operand uses whose producer's value was correctly predicted
     * (one producer instance can feed several consumers).
     */
    std::uint64_t correctlyPredictedUses = 0;
    /**
     * Operand uses whose real value was not yet available when the
     * consumer could otherwise have issued (fetch + window permitting):
     * the dependences a value predictor could possibly help with. Grows
     * with fetch bandwidth — the paper's Section 3 mechanism.
     */
    std::uint64_t stallingUses = 0;
    /**
     * Correctly predicted uses that actually shortened the consumer's
     * execution — the paper's key observable: at a low fetch rate most
     * correct predictions are useless because the operand is ready
     * anyway.
     */
    std::uint64_t usefulPredictions = 0;

    /** Execute cycle per instruction (filled when requested). */
    std::vector<Cycle> execCycle;

    /** Multi-line human-readable summary of this run. */
    std::string report() const;
};

/**
 * Run the ideal machine over @p source (rewound first).
 *
 * This is the primary entry point: the hot loop iterates borrowed
 * spans from TraceSource::nextBlock(), so per-instruction work is a
 * pointer walk with no virtual dispatch.
 *
 * @param source Trace in program order; reset() is called before use.
 * @param config Machine configuration.
 * @param keep_schedule Also return per-instruction execute cycles (used
 *        by the Table 3.2 reproduction test).
 */
IdealMachineResult runIdealMachine(TraceSource &source,
                                   const IdealMachineConfig &config,
                                   bool keep_schedule = false);

/** Convenience overload over an in-memory trace (borrows @p records). */
IdealMachineResult runIdealMachine(const std::vector<TraceRecord> &records,
                                   const IdealMachineConfig &config,
                                   bool keep_schedule = false);

/**
 * Convenience for the Figure 3.1 experiment: the speedup of value
 * prediction at a given fetch rate, i.e. cycles(no VP) / cycles(VP) on
 * machines with identical fetch rate. Runs @p source twice (rewinding
 * each time).
 */
double idealVpSpeedup(TraceSource &source,
                      const IdealMachineConfig &config);

/** Convenience overload over an in-memory trace (borrows @p records). */
double idealVpSpeedup(const std::vector<TraceRecord> &records,
                      const IdealMachineConfig &config);

} // namespace vpsim

#endif // VPSIM_CORE_IDEAL_MACHINE_HPP
