/**
 * @file
 * Conventional multi-branch fetch engine (paper §5, Figures 5.1/5.2):
 * fetches up to the machine width each cycle but stops after n taken
 * control transfers (n = 1..4 or unlimited). The branch predictor may be
 * consulted multiple times per cycle ([18]).
 */

#ifndef VPSIM_FETCH_SEQUENTIAL_FETCH_HPP
#define VPSIM_FETCH_SEQUENTIAL_FETCH_HPP

#include <vector>

#include "fetch/fetch_engine.hpp"
#include "vm/program.hpp"

namespace vpsim
{

/** Width-and-taken-branch-limited fetch. */
class SequentialFetch : public TraceFetchBase
{
  public:
    /**
     * @param trace_records The dynamic trace.
     * @param branch_predictor Consulted for every control instruction.
     * @param max_taken_branches Taken transfers allowed per cycle;
     *        0 means unlimited.
     * @param wrong_path_program When non-null, fetch continues down the
     *        mispredicted path (navigated through this static program
     *        image and the branch predictor) while the machine resolves
     *        the branch; those instructions are marked wrongPath and
     *        squashed at resolution (not owned).
     */
    SequentialFetch(TraceSpan trace_records,
                    BranchPredictor &branch_predictor,
                    unsigned max_taken_branches,
                    const Program *wrong_path_program = nullptr);

    FetchBundle fetch(Cycle now, unsigned max_insts) override;

    std::string name() const override;

    /** Wrong-path instructions delivered (squashed later). */
    std::uint64_t wrongPathFetched() const { return numWrongPath; }

  private:
    FetchBundle fetchWrongPath(unsigned max_insts);

    unsigned maxTaken;
    /** The taken transfer that ends a bundle (0: none does). */
    unsigned takenStop;
    const Program *wpProgram;

    /** The wrong-path walker may go on; read only while a
     *  misprediction is pending. */
    bool wpActive = false;
    Addr wpPc = 0;
    std::uint64_t numWrongPath = 0;
    /** The last wrong-path bundle; capacity is kept across cycles. */
    std::vector<TraceRecord> wpBundle;
};

} // namespace vpsim

#endif // VPSIM_FETCH_SEQUENTIAL_FETCH_HPP
