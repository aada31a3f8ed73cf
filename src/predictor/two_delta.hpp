/**
 * @file
 * Two-delta stride predictor (Sazeides & Smith style [22]; also evaluated
 * by Gabbay & Mendelson [8]). The stride used for prediction is only
 * replaced after the same new stride is observed twice in a row, which
 * filters out one-off discontinuities (e.g. a loop restarting).
 *
 * This is an extension beyond the paper's evaluated configuration, kept
 * for the ablation benches.
 */

#ifndef VPSIM_PREDICTOR_TWO_DELTA_HPP
#define VPSIM_PREDICTOR_TWO_DELTA_HPP

#include "predictor/table_storage.hpp"
#include "predictor/value_predictor.hpp"

namespace vpsim
{

/** Two-delta stride predictor. */
class TwoDeltaStridePredictor final : public ValuePredictor
{
  public:
    explicit TwoDeltaStridePredictor(std::size_t table_capacity = 0)
        : table(table_capacity)
    {}

    RawPrediction lookup(Addr pc) override;
    void train(Addr pc, Value actual,
               bool spec_was_correct = false) override;

    /**
     * Fusion of lookup() + train() on one table probe, with the same
     * algebraic simplifications and branch-to-select conversions as
     * StridePredictor::lookupTrain (see the comment there).
     */
    RawPrediction
    lookupTrain(Addr pc, Value actual, ClassifierState *&cls)
    {
        Entry &entry = table.findOrAllocate(pc);
        cls = table.isInfinite() ? &entry.cls : nullptr;
        const bool has_history = entry.timesSeen != 0;
        const Value predicted = entry.specValue + entry.stride1;
        RawPrediction raw;
        raw.hasPrediction = has_history;
        raw.value = has_history ? predicted : Value{0};
        const bool spec_was_correct = has_history && predicted == actual;

        const Value observed = actual - entry.lastValue;
        const bool promote = has_history && observed == entry.stride2;
        entry.stride1 = promote ? observed : entry.stride1;
        const bool stable = has_history && observed == entry.stride1;
        entry.stride2 = has_history ? observed : entry.stride2;
        entry.lastValue = actual;
        const Value repaired = stable
            ? actual + entry.stride1 * static_cast<Value>(entry.inFlight)
            : actual;
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
    std::string name() const override { return "2-delta-stride"; }
    void reset() override { table.clear(); }

    std::size_t tableSize() const { return table.size(); }

  private:
    struct Entry
    {
        Value lastValue = 0;
        Value specValue = 0;
        /** Stride used for predictions. */
        Value stride1 = 0;
        /** Most recently observed stride (candidate). */
        Value stride2 = 0;
        /** Lookups not yet trained (see StridePredictor::Entry). */
        std::uint32_t inFlight = 0;
        /** Classifier scratch (owned by ClassifiedPredictor). */
        ClassifierState cls;
        std::uint8_t timesSeen = 0;
        /** Set by the table while the entry is allocated. */
        bool live = false;
    };

    PredictionTable<Entry> table;
};

} // namespace vpsim

#endif // VPSIM_PREDICTOR_TWO_DELTA_HPP
