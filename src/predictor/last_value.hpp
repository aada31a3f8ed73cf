/**
 * @file
 * Last-value predictor of Lipasti et al. [13][14]: predicts that an
 * instruction produces the same value it produced last time.
 */

#ifndef VPSIM_PREDICTOR_LAST_VALUE_HPP
#define VPSIM_PREDICTOR_LAST_VALUE_HPP

#include "predictor/table_storage.hpp"
#include "predictor/value_predictor.hpp"

namespace vpsim
{

/** Last-value predictor with infinite or direct-mapped storage. */
class LastValuePredictor : public ValuePredictor
{
  public:
    /** @param table_capacity 0 = infinite, else power-of-two entries. */
    explicit LastValuePredictor(std::size_t table_capacity = 0)
        : table(table_capacity)
    {}

    RawPrediction lookup(Addr pc) override;
    void train(Addr pc, Value actual,
               bool spec_was_correct = false) override;

    /**
     * Fused lookup() + train() on one probe. A fresh allocation reads
     * as "no history" exactly like lookup()'s find() miss (including
     * the finite-table eviction case: the evicted victim had a
     * different tag, so lookup() would have missed too).
     */
    RawPrediction
    lookupTrain(Addr pc, Value actual, ClassifierState *&cls) override
    {
        Entry &entry = table.findOrAllocate(pc);
        cls = table.isInfinite() ? &entry.cls : nullptr;
        RawPrediction raw;
        if (entry.seen)
            raw = {true, entry.lastValue};
        entry.lastValue = actual;
        entry.seen = true;
        return raw;
    }

    StrideInfo strideInfo(Addr pc) const override;
    std::string name() const override { return "last-value"; }
    void reset() override { table.clear(); }

    /** Resident entries (for tests). */
    std::size_t tableSize() const { return table.size(); }

  private:
    struct Entry
    {
        Value lastValue = 0;
        bool seen = false;
        /** Classifier scratch (owned by ClassifiedPredictor). */
        ClassifierState cls;
    };

    PredictionTable<Entry> table;
};

} // namespace vpsim

#endif // VPSIM_PREDICTOR_LAST_VALUE_HPP
