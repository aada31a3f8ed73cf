/**
 * @file
 * Value-predictor interfaces.
 *
 * A raw predictor (ValuePredictor) maps a static instruction address to a
 * predicted destination value; the classification wrapper (classifier.hpp)
 * adds the saturating-counter confidence mechanism of [14]/[8] on top.
 *
 * Predictors follow the paper's update discipline (§3.1): they are updated
 * speculatively right after the lookup, and repaired with the correct
 * value when the real outcome is known.
 */

#ifndef VPSIM_PREDICTOR_VALUE_PREDICTOR_HPP
#define VPSIM_PREDICTOR_VALUE_PREDICTOR_HPP

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace vpsim
{

/** Which raw value predictor to instantiate. */
enum class PredictorKind
{
    LastValue,
    Stride,
    TwoDeltaStride,
    Hybrid,
    /** Order-2 finite context method (extension; [22]). */
    Fcm,
};

/** Outcome of a raw predictor lookup. */
struct RawPrediction
{
    /** True when the table had usable history for this pc. */
    bool hasPrediction = false;
    /** The predicted destination value (valid when hasPrediction). */
    Value value = 0;
};

/** Stride state exposed for the value distributor (paper §4.2). */
struct StrideInfo
{
    bool valid = false;
    Value lastValue = 0;
    Value stride = 0;
};

/**
 * Classifier scratch co-located in a predictor's table entry.
 *
 * The paper's classifier (§3.1) is a saturating counter stored *in* the
 * value-prediction table entry, not a separate structure. The
 * table-backed predictors (last-value, stride, 2-delta) reserve this
 * slot in their entries and hand it to the classifier, from their fused
 * lookupTrain() and from classifierSlot(), so the classification probe
 * rides on the table probe the raw prediction already paid for. The
 * predictor itself never reads or writes the field; the counter
 * geometry (width, threshold, miss policy) lives in the classifier.
 *
 * Only infinite tables co-locate: a finite raw table evicts entries on
 * index conflicts at lookup time, while the classifier's own finite
 * counter table evicts at first-confidence time, so co-locating would
 * change Section 5 eviction interleavings. There, and for the hybrid
 * and FCM predictors, the classifier keeps its own counter table.
 *
 * Zero-initialized state is exactly a fresh counter (SatCounter's
 * initial value is 0 for every width), so allocation needs no extra
 * bookkeeping.
 */
struct ClassifierState
{
    std::uint16_t count = 0;
};

/**
 * A raw (unclassified) value predictor.
 *
 * Call order per dynamic instruction: lookup(pc) at fetch, then
 * train(pc, actual) when the instruction's outcome is known.
 */
class ValuePredictor
{
  public:
    virtual ~ValuePredictor() = default;

    /** Predict the destination value of the instruction at @p pc. */
    virtual RawPrediction lookup(Addr pc) = 0;

    /**
     * Train with the actual produced value.
     *
     * @param pc Static instruction address.
     * @param actual The value the instruction really produced.
     * @param spec_was_correct The speculative lookup-time update for
     *        this dynamic instance predicted @p actual exactly. The
     *        paper repairs the table only "in case of an incorrect
     *        update", so a correct speculation must NOT rewind the
     *        speculatively advanced state (later in-flight copies
     *        already consumed it). Sequential callers can leave the
     *        default: with no copies in flight a full repair of a
     *        correct speculation is a no-op.
     */
    virtual void train(Addr pc, Value actual,
                       bool spec_was_correct = false) = 0;

    /**
     * Abandon one outstanding lookup for @p pc without training: the
     * instruction was squashed (wrong-path fetch), so its outcome never
     * materializes. Predictors tracking in-flight lookups release the
     * slot; the speculative state advance is NOT undone (the pollution
     * is the point of modelling wrong paths).
     */
    virtual void abandon(Addr pc) { (void)pc; }

    /**
     * Stride state for @p pc, used by the value distributor to expand
     * merged requests into X, X+stride, X+2*stride sequences. Last-value
     * predictors report a zero stride.
     */
    virtual StrideInfo strideInfo(Addr pc) const = 0;

    /** Human-readable predictor name. */
    virtual std::string name() const = 0;

    /** Drop all state. */
    virtual void reset() = 0;
};

} // namespace vpsim

#endif // VPSIM_PREDICTOR_VALUE_PREDICTOR_HPP
