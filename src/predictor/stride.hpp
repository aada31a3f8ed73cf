/**
 * @file
 * Stride value predictor of Gabbay & Mendelson [7][8]: predicts
 * last value + stride, where the stride is the delta between the two most
 * recent outcomes.
 *
 * Following the paper (§3.1), the predictor is by default updated
 * *speculatively* right after the lookup (the table's last-value advances
 * by the stride, so back-to-back copies of the same instruction each get
 * the next value in the sequence), and the correct value is repaired in at
 * train() time if the speculation was wrong.
 */

#ifndef VPSIM_PREDICTOR_STRIDE_HPP
#define VPSIM_PREDICTOR_STRIDE_HPP

#include "predictor/table_storage.hpp"
#include "predictor/value_predictor.hpp"

namespace vpsim
{

/** Classic (last + stride) predictor. */
class StridePredictor : public ValuePredictor
{
  public:
    /**
     * @param table_capacity 0 = infinite, else power-of-two entries.
     * @param speculative_update Advance table state at lookup (paper
     *        default); when false, state changes only at train().
     */
    explicit StridePredictor(std::size_t table_capacity = 0,
                             bool speculative_update = true)
        : table(table_capacity),
          speculativeUpdate(speculative_update)
    {}

    RawPrediction lookup(Addr pc) override;
    void train(Addr pc, Value actual,
               bool spec_was_correct = false) override;

    /**
     * Fusion of lookup() + train() on one table probe, with the state
     * transitions of the unfused pair applied in their original order.
     * Two algebraic simplifications fall out of the fusion: lookup's
     * ++inFlight is immediately undone by train's decrement (no other
     * observer runs in between), and the wrong-speculation repair
     * projects over the *pre-lookup* in-flight count, so inFlight is
     * read but never written. The data-dependent decisions are ternary
     * selects rather than branches: prediction correctness flips with
     * the simulated values, and a mispredicted branch per instruction
     * would dominate this whole path. It also hands out the entry's
     * co-located classifier slot (infinite tables only — see the base
     * class).
     */
    RawPrediction
    lookupTrain(Addr pc, Value actual, ClassifierState *&cls) override
    {
        Entry &entry = table.findOrAllocate(pc);
        cls = table.isInfinite() ? &entry.cls : nullptr;
        const bool has_history = entry.timesSeen != 0;
        const Value predicted = entry.specValue + entry.stride;
        RawPrediction raw;
        raw.hasPrediction = has_history;
        raw.value = has_history ? predicted : Value{0};
        const bool spec_advance = speculativeUpdate && has_history;
        const bool spec_was_correct = has_history && predicted == actual;

        const Value observed = actual - entry.lastValue;
        const bool stable = has_history && observed == entry.stride;
        entry.stride = has_history ? observed : entry.stride;
        entry.lastValue = actual;
        const Value repaired = stable
            ? actual + entry.stride * static_cast<Value>(entry.inFlight)
            : actual;
        // Wrong speculation → repair; correct speculation keeps lookup's
        // advance (specValue = predicted); no history → specValue would
        // only be touched by train's plain repair.
        entry.specValue = spec_was_correct
            ? (spec_advance ? predicted : entry.specValue)
            : repaired;
        entry.timesSeen = entry.timesSeen < 2
            ? static_cast<std::uint8_t>(entry.timesSeen + 1)
            : entry.timesSeen;
        return raw;
    }

    void abandon(Addr pc) override;
    StrideInfo strideInfo(Addr pc) const override;
    std::string name() const override { return "stride"; }
    void reset() override { table.clear(); }

    std::size_t tableSize() const { return table.size(); }

  private:
    struct Entry
    {
        /** Architectural last value (as trained). */
        Value lastValue = 0;
        /** Speculatively advanced last value (== lastValue when clean). */
        Value specValue = 0;
        Value stride = 0;
        /** 0 = empty, 1 = one outcome seen, 2 = stride established. */
        std::uint8_t timesSeen = 0;
        /**
         * Lookups whose outcomes have not trained yet (copies in
         * flight). A repair after a wrong speculation restores
         * specValue to actual + inFlight * stride, i.e. it re-predicts
         * the squashed in-flight copies instead of rewinding the table
         * behind them.
         */
        std::uint32_t inFlight = 0;
        /** Classifier scratch (owned by ClassifiedPredictor). */
        ClassifierState cls;
    };

    PredictionTable<Entry> table;
    bool speculativeUpdate;
};

} // namespace vpsim

#endif // VPSIM_PREDICTOR_STRIDE_HPP
