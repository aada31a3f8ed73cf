#include "fetch/sequential_fetch.hpp"

#include <algorithm>
#include <sstream>

namespace vpsim
{

SequentialFetch::SequentialFetch(
    TraceSpan trace_records,
    BranchPredictor &branch_predictor, unsigned max_taken_branches,
    const Program *wrong_path_program)
    : TraceFetchBase(trace_records, branch_predictor),
      maxTaken(max_taken_branches),
#ifdef VPSIM_MUTATION_FETCH_EXTRA_TAKEN
      // Mutation target (scripts/mutation_smoke.sh): one taken transfer
      // more than the limit per bundle, which fetch.bundle_rules must
      // catch.
      takenStop(max_taken_branches == 0 ? 0 : max_taken_branches + 1),
#else
      takenStop(max_taken_branches),
#endif
      wpProgram(wrong_path_program)
{
}

FetchBundle
SequentialFetch::fetchWrongPath(unsigned max_insts)
{
    wpBundle.clear();
    unsigned taken_seen = 0;
    while (wpActive && wpBundle.size() < max_insts) {
        if (!wpProgram->contains(wpPc)) {
            wpActive = false; // walked off the image: fetch goes idle
            break;
        }
        const Instruction &inst =
            wpProgram->at(wpProgram->indexOf(wpPc));
        if (inst.op == OpCode::Halt) {
            wpActive = false;
            break;
        }

        TraceRecord &rec = wpBundle.emplace_back();
        rec.pc = wpPc;
        rec.op = inst.op;
        rec.rd = writesDest(inst.op) ? inst.rd : invalidReg;
        rec.rs1 = readsSrc1(inst.op) ? inst.rs1 : invalidReg;
        rec.rs2 = readsSrc2(inst.op) ? inst.rs2 : invalidReg;

        Addr next = rec.fallThrough();
        if (inst.op == OpCode::Jal) {
            rec.taken = true;
            next = wpProgram->pcOf(inst.target);
        } else if (inst.op == OpCode::Jalr) {
            // Navigate indirect jumps through the BTB (peek only).
            const BranchPrediction p = bpred.predict(rec);
            if (p.btbHit) {
                rec.taken = true;
                next = p.target;
            } else {
                wpActive = false; // no target to follow
            }
        } else if (inst.isConditional()) {
            const BranchPrediction p = bpred.predict(rec);
            rec.taken = p.taken;
            if (p.taken)
                next = wpProgram->pcOf(inst.target);
        }
        rec.nextPc = next;
        ++numWrongPath;

        if (!wpActive)
            break;
        if (rec.taken) {
            ++taken_seen;
            if (maxTaken != 0 && taken_seen >= maxTaken)
                break;
        }
        wpPc = next;
    }
    return {TraceSpan(wpBundle.data(), wpBundle.size()), false, true};
}

FetchBundle
SequentialFetch::fetch(Cycle now, unsigned max_insts)
{
    if (stalled(now) || done()) {
        // While a misprediction resolves, a wrong-path-enabled front
        // end keeps fetching down the predicted path.
        if (wpProgram && wpActive && pendingBranch != invalidSeqNum)
            return fetchWrongPath(max_insts);
        return {};
    }

    const std::size_t first = cursor;
    const std::size_t limit =
        std::min(trace.size(), first + std::size_t{max_insts});
    unsigned taken_seen = 0;
    std::size_t end = first;
    bool mispredicted = false;
    while (end < limit) {
        const TraceRecord &record = trace[end++];
        if (consumeRecord(record)) {
            if (wpProgram) {
                // Arm the wrong-path walker at the predicted target.
                wpPc = pendingPrediction.taken
                    ? pendingPrediction.target
                    : record.fallThrough();
                wpActive = true;
            }
            mispredicted = true;
            break;
        }
        if (record.isControlFlow() && record.taken &&
            ++taken_seen == takenStop)
            break;
    }
    return delivered(first, end, mispredicted,
                     maxTaken == 0 || taken_seen <= maxTaken);
}

std::string
SequentialFetch::name() const
{
    std::ostringstream oss;
    oss << "sequential(maxTaken=";
    if (maxTaken == 0)
        oss << "unlimited";
    else
        oss << maxTaken;
    oss << ")";
    return oss.str();
}

} // namespace vpsim
