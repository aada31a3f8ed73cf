/**
 * @file
 * Profiling-based value-prediction classification, after Gabbay &
 * Mendelson, "Can Program Profiling Support Value Prediction?" [9].
 *
 * The paper's Section 4.2 assumes compiler-inserted *opcode hints* that
 * tell the hardware (a) whether an instruction is worth predicting at
 * all and (b) which table of the hybrid predictor (last-value or stride)
 * should serve it. This module produces those hints the way [9] does:
 * by profiling a training run and classifying every static instruction
 * by its observed value behaviour. The hints can then
 *
 *  - gate a HintedHybridPredictor (no confidence counters needed), and
 *  - filter requests entering the Section 4 interleaved table, which
 *    reduces the number of bank conflicts the address router must
 *    resolve (one of Section 4.2's stated advantages).
 */

#ifndef VPSIM_PREDICTOR_PROFILE_HPP
#define VPSIM_PREDICTOR_PROFILE_HPP

#include <vector>

#include "predictor/table_storage.hpp"
#include "predictor/value_predictor.hpp"
#include "trace/record.hpp"

namespace vpsim
{

/** The per-static-instruction hint a profiling compiler would emit. */
enum class ValueHint : std::uint8_t
{
    /** Do not predict this instruction (saves table bandwidth). */
    NotPredictable,
    /** Serve from the last-value table. */
    LastValue,
    /** Serve from the stride table. */
    Stride,
};

/** A profile: one hint per static instruction, plus summary counts. */
class ProfileHints
{
  public:
    /**
     * Profile @p training_records and classify every value-producing
     * static instruction.
     *
     * @param training_records The profiling run's trace.
     * @param accuracy_threshold Minimum simulated accuracy for an
     *        instruction to be hinted predictable (paper [9] uses a
     *        high-confidence cutoff; default 0.75).
     * @param min_executions Instructions seen fewer times than this are
     *        left NotPredictable (too little profile signal).
     */
    static ProfileHints profile(
        const std::vector<TraceRecord> &training_records,
        double accuracy_threshold = 0.75,
        std::uint64_t min_executions = 4);

    /** Hint for @p pc; unseen instructions are NotPredictable. */
    ValueHint hintFor(Addr pc) const;

    /** @name Summary statistics */
    /// @{
    std::uint64_t staticInstructions() const { return hints.size(); }
    std::uint64_t hintedLastValue() const { return numLastValue; }
    std::uint64_t hintedStride() const { return numStride; }
    std::uint64_t hintedNotPredictable() const { return numNot; }
    /// @}

  private:
    /** One hint per static pc (hintFor() runs on the per-instruction
     *  path of the hinted hybrid predictor). */
    struct HintEntry
    {
        ValueHint hint = ValueHint::NotPredictable;
    };

    PredictionTable<HintEntry> hints;
    std::uint64_t numLastValue = 0;
    std::uint64_t numStride = 0;
    std::uint64_t numNot = 0;
};

/**
 * Hybrid predictor steered by profile hints instead of hardware
 * confidence counters (§4.2): last-value and stride components only see
 * the instructions hinted at them; unhinted instructions never predict.
 */
class HintedHybridPredictor : public ValuePredictor
{
  public:
    /**
     * @param profile_hints The profile; the caller keeps it alive.
     * @param last_capacity Last-value table entries (0 = infinite).
     * @param stride_capacity Stride table entries (0 = infinite).
     */
    explicit HintedHybridPredictor(const ProfileHints &profile_hints,
                                   std::size_t last_capacity = 0,
                                   std::size_t stride_capacity = 1024);

    RawPrediction lookup(Addr pc) override;
    void train(Addr pc, Value actual,
               bool spec_was_correct = false) override;
    void abandon(Addr pc) override;
    StrideInfo strideInfo(Addr pc) const override;
    std::string name() const override { return "hinted-hybrid"; }
    void reset() override;

    /** Lookups suppressed by a NotPredictable hint. */
    std::uint64_t suppressedLookups() const { return numSuppressed; }

  private:
    struct LastEntry
    {
        Value lastValue = 0;
        bool seen = false;
    };

    struct StrideEntry
    {
        Value lastValue = 0;
        Value specValue = 0;
        Value stride = 0;
        std::uint8_t timesSeen = 0;
        std::uint32_t inFlight = 0;
    };

    const ProfileHints &profile;
    PredictionTable<LastEntry> lastTable;
    PredictionTable<StrideEntry> strideTable;
    std::uint64_t numSuppressed = 0;
};

} // namespace vpsim

#endif // VPSIM_PREDICTOR_PROFILE_HPP
