#include "vptable/interleaved_table.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "isa/instruction.hpp"

namespace vpsim
{

InterleavedVpTable::InterleavedVpTable(
    std::unique_ptr<ClassifiedPredictor> predictor,
    const VpTableConfig &config)
    : classified(std::move(predictor)),
      cfg(config)
{
    panicIf(!classified, "InterleavedVpTable needs a predictor");
    fatalIf(cfg.banks == 0, "bank count must be positive");
    fatalIf(cfg.portsPerBank == 0, "ports per bank must be positive");
}

unsigned
InterleavedVpTable::bankOf(Addr pc) const
{
    // Low-order bits of the (word) address select the bank (§4.2).
    return static_cast<unsigned>((pc / instBytes) % cfg.banks);
}

const std::vector<VpGrant> &
InterleavedVpTable::processBundle(const std::vector<Addr> &pcs)
{
    grants.assign(pcs.size(), VpGrant{});
    numRequests += pcs.size();

    // Router step 1: merge copies of the same instruction. Groups are
    // ordered by the first (lead) occurrence, which also defines the
    // priority used for conflict resolution. A bundle holds at most an
    // issue width of requests, so a scan of the leads finds the group.
    groups.clear();
    nextCopy.resize(pcs.size());
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        // §4.2: opcode hints tell the router which instructions are
        // prediction candidates at all; hinted-off requests never reach
        // the banks (fewer conflicts to resolve).
        if (cfg.hints &&
            cfg.hints->hintFor(pcs[i]) == ValueHint::NotPredictable) {
            ++numHintFiltered;
            continue;
        }
        auto group = std::find_if(
            groups.begin(), groups.end(),
            [&](const Group &g) { return pcs[g.lead] == pcs[i]; });
        if (group == groups.end()) {
            groups.push_back({i, i, 1});
        } else {
            nextCopy[group->tail] = i;
            group->tail = i;
            ++group->copies;
        }
    }

    // Router step 2: per-bank port arbitration in priority order.
    bankLoad.assign(cfg.banks, 0);
    classified->withKernel([&](auto &kernel) {
        for (const Group &group : groups) {
            const Addr pc = pcs[group.lead];
            ++numAccesses;
            numMerged += group.copies - 1;
            unsigned &load = bankLoad[bankOf(pc)];
            if (load >= cfg.portsPerBank) {
                // Denied: every copy is informed its prediction is
                // invalid.
                ++numDeniedAccesses;
                numDeniedRequests += group.copies;
                continue;
            }
            ++load;
            // Table access + value distribution. The classifier's
            // speculative update advances the stride sequence per copy,
            // so successive copies of the same instruction receive
            // X, X+stride, X+2*stride, ... (Figure 4.2).
            const StrideInfo info = kernel.strideInfo(pc);
            std::size_t member = group.lead;
            for (std::size_t copy = 0; copy < group.copies; ++copy) {
                VpGrant &grant = grants[member];
                grant.granted = true;
                grant.merged = copy != 0;
                grant.prediction = kernel.predict(pc);
                if (copy != 0 && info.valid && info.stride != 0)
                    ++numAdditions; // distributor computes X + k*stride
                member = nextCopy[member];
            }
        }
    });
    return grants;
}

void
InterleavedVpTable::update(Addr pc, const ClassifiedPrediction &prediction,
                           Value actual)
{
    classified->update(pc, prediction, actual);
}

} // namespace vpsim
