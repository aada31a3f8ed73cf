/**
 * @file
 * Branch predictor interface and the perfect predictor.
 *
 * The machine models are trace driven, so a predictor is consulted with
 * the dynamic record of the branch being fetched and its prediction is
 * compared against the recorded outcome; a mismatch (direction or target)
 * is a misprediction and costs the paper's 3-cycle redirect (§5).
 */

#ifndef VPSIM_BPRED_BRANCH_PREDICTOR_HPP
#define VPSIM_BPRED_BRANCH_PREDICTOR_HPP

#include <cstdint>
#include <string>

#include "trace/record.hpp"

namespace vpsim
{

/** A direction + target prediction for one control instruction. */
struct BranchPrediction
{
    /** Predicted direction (jumps are always predicted taken on a hit). */
    bool taken = false;
    /** Predicted target when taken (valid when btbHit). */
    Addr target = 0;
    /** The BTB had an entry for this pc. */
    bool btbHit = false;
};

/** Abstract branch predictor consulted at fetch, trained at resolve. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predict the control instruction described by @p record. */
    virtual BranchPrediction predict(const TraceRecord &record) = 0;

    /** Train with the actual outcome after the branch resolves. */
    virtual void update(const TraceRecord &record,
                        const BranchPrediction &prediction) = 0;

    /** Predictor name for reports. */
    virtual std::string name() const = 0;

    /** Drop all state. */
    virtual void reset() = 0;

    /**
     * True for the oracle, whose every prediction is correct: a front
     * end asks once and then skips the predictor altogether.
     */
    virtual bool isOracle() const { return false; }

    /**
     * Was @p prediction fully correct for @p record? Direction must match
     * and, for a taken transfer, the predicted target must equal the
     * recorded successor.
     */
    static bool
    correct(const TraceRecord &record, const BranchPrediction &prediction)
    {
        if (prediction.taken != record.taken)
            return false;
        if (record.taken && prediction.target != record.nextPc)
            return false;
        return true;
    }
};

/** Oracle predictor: echoes the trace (paper's "ideal BTB"). */
class PerfectBranchPredictor : public BranchPredictor
{
  public:
    BranchPrediction
    predict(const TraceRecord &record) override
    {
        return {record.taken, record.nextPc, true};
    }

    void
    update(const TraceRecord &record,
           const BranchPrediction &prediction) override
    {
        (void)record;
        (void)prediction;
    }

    std::string name() const override { return "perfect"; }
    void reset() override {}
    bool isOracle() const override { return true; }
};

} // namespace vpsim

#endif // VPSIM_BPRED_BRANCH_PREDICTOR_HPP
