/**
 * @file
 * Front-end fetch engine base class shared by the Section 5 experiments.
 *
 * A fetch engine walks the dynamic trace (the correct path) and decides,
 * cycle by cycle, which prefix of the remaining trace the machine gets to
 * see, given its bandwidth rules (taken-branch limits, trace-cache lines)
 * and the branch predictor's behaviour. A branch whose prediction
 * disagrees with the recorded outcome ends the cycle's bundle and stalls
 * fetch until the machine reports the branch resolved; fetch resumes the
 * cycle after resolution, which together with the 2-cycle front-end gives
 * the paper's 3-cycle misprediction penalty.
 */

#ifndef VPSIM_FETCH_FETCH_ENGINE_HPP
#define VPSIM_FETCH_FETCH_ENGINE_HPP

#include <cstdint>
#include <string>

#include "bpred/branch_predictor.hpp"
#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"
#include "trace/span.hpp"

namespace vpsim
{

/**
 * What one fetch cycle delivered, as a view: no record is copied.
 *
 * Correct-path fetch is always a contiguous slice of the trace, and
 * only its last record can be a mispredicted branch (a misprediction
 * ends the bundle). Wrong-path fetch never mixes with the correct path:
 * it views a buffer the engine owns, valid until its next fetch().
 */
struct FetchBundle
{
    TraceSpan records;
    /** The last record is a control transfer the predictor got wrong. */
    bool endsInMispredict = false;
    /**
     * The records were fetched down the mispredicted path (synthetic
     * records from the static program image, values unknown); they are
     * squashed at resolution.
     */
    bool wrongPath = false;
    /** Trace position of the first record (correct path only). */
    std::size_t first = 0;
};

/**
 * Per-cycle fetch engine: a trace cursor, a branch predictor, and the
 * mispredict stall state machine shared by every front end. Each front
 * end supplies its bandwidth rules in fetch().
 */
class TraceFetchBase
{
  public:
    /**
     * @param trace_records Borrowed view of the dynamic trace; the
     *        viewed storage must outlive the engine. A
     *        std::vector<TraceRecord> converts implicitly.
     */
    TraceFetchBase(TraceSpan trace_records,
                   BranchPredictor &branch_predictor)
        : trace(trace_records), bpred(branch_predictor),
          idealBtb(branch_predictor.isOracle())
    {
    }
    virtual ~TraceFetchBase() = default;
    TraceFetchBase(const TraceFetchBase &) = delete;
    TraceFetchBase &operator=(const TraceFetchBase &) = delete;

    /**
     * Fetch the bundle for cycle @p now.
     *
     * @param now Current cycle.
     * @param max_insts Bundle budget for this cycle (machine width and
     *        free window slots).
     * @return A view of the fetched records, valid until the next call.
     */
    virtual FetchBundle fetch(Cycle now, unsigned max_insts) = 0;

    /** Engine name for reports. */
    virtual std::string name() const = 0;

    /** All trace records have been fetched. */
    bool done() const { return cursor >= trace.size(); }

    /**
     * The machine resolved the mispredicted branch at trace position
     * @p position in cycle @p resolve_cycle; fetch may resume the
     * following cycle.
     */
    void
    branchResolved(SeqNum position, Cycle resolve_cycle)
    {
        if (position != pendingBranch)
            return;
        pendingBranch = invalidSeqNum;
        resumeCycle = resolve_cycle + 1;
    }

    /** Mispredicted control transfers encountered. */
    std::uint64_t mispredicts() const { return numMispredicts; }

  protected:
    /** True while fetch is blocked on an unresolved misprediction. */
    bool
    stalled(Cycle now) const
    {
        return pendingBranch != invalidSeqNum || now < resumeCycle;
    }

    /**
     * Fetch the correct-path record @p record, an element of trace:
     * consult and train the branch predictor for a control instruction
     * and arm the stall machine on a misprediction. Every front end
     * calls this once per fetched record and keeps its own cursor in a
     * local; delivered() closes the bundle.
     *
     * With the ideal BTB nothing can mispredict, so no predictor is
     * called: the engine learns which predictor it has once, at
     * construction.
     *
     * @retval true The record mispredicted (the bundle ends with it).
     */
    bool
    consumeRecord(const TraceRecord &record)
    {
        if (idealBtb || !record.isControlFlow())
            return false;
        const BranchPrediction prediction = bpred.predict(record);
        bpred.update(record, prediction);
        if (BranchPredictor::correct(record, prediction))
            return false;
        pendingBranch = static_cast<SeqNum>(&record - trace.data());
        pendingPrediction = prediction;
        ++numMispredicts;
        return true;
    }

    /**
     * Close the correct-path bundle [@p first, @p end): advance the
     * cursor to @p end and return a view of the records.
     *
     * Audits the bundle against the rules every front end shares, plus
     * the engine's own (@p within_rules: a taken-transfer, line or
     * block limit): the bundle starts at the previous cursor, stays
     * inside the trace, and holds a mispredicted branch only as its
     * last record, which is the one the stall machine waits on.
     */
    FetchBundle
    delivered(std::size_t first, std::size_t end, bool mispredicted,
              bool within_rules)
    {
        const bool mispredict_last = mispredicted
            ? end > first && end - 1 == pendingBranch
            : pendingBranch == invalidSeqNum;
        checkInvariant(InvariantLevel::Cheap,
                       first == cursor && first <= end &&
                           end <= trace.size() && mispredict_last &&
                           within_rules,
                       "fetch.bundle_rules", [&] {
                           return "front end '" + name() +
                                  "' delivered records [" +
                                  std::to_string(first) + ", " +
                                  std::to_string(end) + ") from cursor " +
                                  std::to_string(cursor) +
                                  " (misprediction only last: " +
                                  (mispredict_last ? "yes" : "no") +
                                  ", within its own limits: " +
                                  (within_rules ? "yes" : "no") + ")";
                       });
        cursor = end;
        return {TraceSpan(trace.data() + first, end - first), mispredicted,
                false, first};
    }

    const TraceSpan trace;
    BranchPredictor &bpred;
    /** The predictor is the oracle (paper's ideal BTB). */
    const bool idealBtb;
    std::size_t cursor = 0;

    /** Trace position of the unresolved mispredicted branch. */
    SeqNum pendingBranch = invalidSeqNum;
    /** The (wrong) prediction that armed the stall, for wrong-path
     *  navigation. */
    BranchPrediction pendingPrediction{};
    /** First cycle fetch may run again after a resolved mispredict. */
    Cycle resumeCycle = 0;

    std::uint64_t numMispredicts = 0;
};

} // namespace vpsim

#endif // VPSIM_FETCH_FETCH_ENGINE_HPP
