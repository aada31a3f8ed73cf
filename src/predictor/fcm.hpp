/**
 * @file
 * Finite Context Method (FCM) value predictor, after Sazeides & Smith,
 * "The Predictability of Data Values" [22] (cited by the paper §2.1 as
 * the further study of prediction methods).
 *
 * A first-level table records, per static instruction, a hash of the
 * last @c order outcome values (the context); a shared second-level
 * table maps contexts to the value that followed them last time. FCM
 * catches repeating non-arithmetic sequences (e.g. pointers cycling
 * through a ring, period-k patterns) that defeat last-value and stride
 * predictors. It is an extension beyond the paper's evaluated
 * configuration, used by the predictor ablation benches.
 */

#ifndef VPSIM_PREDICTOR_FCM_HPP
#define VPSIM_PREDICTOR_FCM_HPP

#include <vector>

#include "predictor/table_storage.hpp"
#include "predictor/value_predictor.hpp"

namespace vpsim
{

/** Order-N finite context method predictor. */
class FcmPredictor : public ValuePredictor
{
  public:
    /**
     * @param context_order Number of recent values hashed into the
     *        context (typically 2-4).
     * @param table_capacity First-level capacity (0 = infinite).
     * @param value_table_bits log2 of the shared second-level table.
     */
    explicit FcmPredictor(unsigned context_order = 2,
                          std::size_t table_capacity = 0,
                          unsigned value_table_bits = 16);

    RawPrediction lookup(Addr pc) override;
    void train(Addr pc, Value actual,
               bool spec_was_correct = false) override;
    StrideInfo strideInfo(Addr pc) const override;
    std::string name() const override;
    void reset() override;

    std::size_t tableSize() const { return contexts.size(); }

  private:
    struct ContextEntry
    {
        /** Ring buffer of the most recent outcome values. */
        Value recent[8] = {};
        /** Next ring slot to overwrite. */
        std::uint8_t head = 0;
        /** How many values have been recorded (for warmup). */
        std::uint8_t valuesSeen = 0;
    };

    struct ValueEntry
    {
        std::uint64_t tag = 0;
        Value value = 0;
        bool valid = false;
    };

    std::uint64_t contextHash(const ContextEntry &entry) const;
    std::size_t valueIndex(Addr pc, std::uint64_t context) const;

    unsigned order;
    PredictionTable<ContextEntry> contexts;
    std::vector<ValueEntry> values;
    std::uint64_t valueMask;
};

} // namespace vpsim

#endif // VPSIM_PREDICTOR_FCM_HPP
