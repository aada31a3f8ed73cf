/**
 * @file
 * Hybrid value predictor (paper §4.2, after Gabbay & Mendelson [9]):
 * a large last-value table plus a relatively small stride table.
 *
 * The paper's version steers instructions with compiler-inserted opcode
 * hints; we derive the hint dynamically instead: an instruction is
 * promoted into the stride table once it has produced the same nonzero
 * stride twice in a row (i.e. once it has demonstrated stride behaviour),
 * which is the same classification a profile pass would produce. The
 * predictor reports which component served each lookup so the §4.2
 * value-distributor ablation can count the additions it would have to
 * perform.
 */

#ifndef VPSIM_PREDICTOR_HYBRID_HPP
#define VPSIM_PREDICTOR_HYBRID_HPP

#include "predictor/last_value.hpp"
#include "predictor/stride.hpp"
#include "predictor/value_predictor.hpp"

namespace vpsim
{

/** Hybrid last-value + small-stride-table predictor. */
class HybridPredictor : public ValuePredictor
{
  public:
    /**
     * @param last_value_capacity Last-value table size (0 = infinite).
     * @param stride_capacity Stride table size (0 = infinite); the paper
     *        intends this to be much smaller than the last-value table.
     */
    explicit HybridPredictor(std::size_t last_value_capacity = 0,
                             std::size_t stride_capacity = 1024)
        : lastTable(last_value_capacity),
          strideTable(stride_capacity)
    {}

    RawPrediction lookup(Addr pc) override;
    void train(Addr pc, Value actual,
               bool spec_was_correct = false) override;
    void abandon(Addr pc) override;
    StrideInfo strideInfo(Addr pc) const override;
    std::string name() const override { return "hybrid"; }
    void reset() override;

    /** Lookups served by the stride component (needs distributor math). */
    std::uint64_t strideServed() const { return strideHits; }
    /** Lookups served by the last-value component. */
    std::uint64_t lastValueServed() const { return lastValueHits; }

  private:
    struct LastEntry
    {
        Value lastValue = 0;
        /** Previously observed stride, for promotion detection. */
        Value prevStride = 0;
        std::uint8_t timesSeen = 0;
    };

    struct StrideEntry
    {
        Value lastValue = 0;
        Value specValue = 0;
        Value stride = 0;
        bool seen = false;
        /** Lookups not yet trained (see StridePredictor::Entry). */
        std::uint32_t inFlight = 0;
    };

    PredictionTable<LastEntry> lastTable;
    PredictionTable<StrideEntry> strideTable;
    std::uint64_t strideHits = 0;
    std::uint64_t lastValueHits = 0;
};

} // namespace vpsim

#endif // VPSIM_PREDICTOR_HYBRID_HPP
