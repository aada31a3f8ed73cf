/**
 * @file
 * Stride value predictor of Gabbay & Mendelson [7][8]: predicts
 * last value + stride, where the stride is the delta between the two most
 * recent outcomes.
 *
 * Following the paper (§3.1), the predictor is updated *speculatively*
 * right after the lookup (the table's last-value advances
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
class StridePredictor final : public ValuePredictor
{
  public:
    /** @param table_capacity 0 = infinite, else power-of-two entries. */
    explicit StridePredictor(std::size_t table_capacity = 0)
        : table(table_capacity)
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
     * co-located classifier slot (infinite tables only; see
     * ClassifierState).
     */
    RawPrediction
    lookupTrain(Addr pc, Value actual, ClassifierState *&cls)
    {
        Entry &entry = table.findOrAllocate(pc);
        cls = table.isInfinite() ? &entry.cls : nullptr;
        const bool has_history = entry.timesSeen != 0;
        const Value predicted = entry.specValue + entry.stride;
        RawPrediction raw;
        raw.hasPrediction = has_history;
        raw.value = has_history ? predicted : Value{0};
        const bool spec_was_correct = has_history && predicted == actual;

        const Value observed = actual - entry.lastValue;
        const bool stable = has_history && observed == entry.stride;
        entry.stride = has_history ? observed : entry.stride;
        entry.lastValue = actual;
        const Value repaired = stable
            ? actual + entry.stride * static_cast<Value>(entry.inFlight)
            : actual;
        // Wrong speculation (or no history) → repair; correct
        // speculation keeps lookup's advance (specValue = predicted).
        entry.specValue = spec_was_correct ? predicted : repaired;
        entry.timesSeen = entry.timesSeen < 2
            ? static_cast<std::uint8_t>(entry.timesSeen + 1)
            : entry.timesSeen;
        return raw;
    }

    /** @p pc's co-located classifier slot (see ClassifierState). */
    ClassifierState *
    classifierSlot(Addr pc)
    {
        Entry *entry = table.isInfinite() ? table.find(pc) : nullptr;
        return entry ? &entry->cls : nullptr;
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
        /** 0 = empty, 1 = one outcome seen, 2 = stride established. */
        std::uint8_t timesSeen = 0;
        /** Set by the table while the entry is allocated. */
        bool live = false;
    };
    static_assert(sizeof(Entry) == 32, "one stride entry per half line");

    PredictionTable<Entry> table;
};

} // namespace vpsim

#endif // VPSIM_PREDICTOR_STRIDE_HPP
