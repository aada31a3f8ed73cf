/**
 * @file
 * The paper's Section 4 hardware: a highly interleaved value prediction
 * table fed by an address router and drained by a value distributor.
 *
 * Per fetch bundle (one trace-cache line or wide fetch group):
 *  1. The trace addresses buffer presents the PCs of the bundle's
 *     value-producing instructions to the address router.
 *  2. The router merges requests from multiple copies of the same
 *     instruction (e.g. several unrolled loop iterations in one trace
 *     line) into a single table access, and resolves bank conflicts by
 *     trace-order priority: each bank can serve portsPerBank (merged)
 *     accesses per cycle; later conflicting accesses are denied and the
 *     corresponding instructions are told their predicted value is not
 *     available (the "valid bit").
 *  3. The prediction table banks return (last value, stride); the value
 *     distributor assigns the k merged copies the expanded sequence
 *     X, X+stride, ..., X+(k-1)*stride (Figure 4.2/4.3), performing k-1
 *     additions only when the stride component answered (§4.2's hybrid
 *     optimization).
 */

#ifndef VPSIM_VPTABLE_INTERLEAVED_TABLE_HPP
#define VPSIM_VPTABLE_INTERLEAVED_TABLE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "predictor/classifier.hpp"
#include "predictor/profile.hpp"

namespace vpsim
{

/** Geometry of the interleaved prediction table. */
struct VpTableConfig
{
    /** Number of banks (pc modulo banks selects the bank). */
    unsigned banks = 8;
    /** Accesses each bank can serve per cycle. */
    unsigned portsPerBank = 1;
    /**
     * Optional profile hints (§4.2): instructions hinted NotPredictable
     * are filtered before the router, so they never contend for bank
     * ports. The caller keeps the profile alive.
     */
    const ProfileHints *hints = nullptr;
};

/** Per-instruction outcome of one bundle's table access. */
struct VpGrant
{
    /** The router granted this instruction a table access. */
    bool granted = false;
    /** Served as a non-lead copy of a merged request. */
    bool merged = false;
    /** The classified prediction (meaningful when granted). */
    ClassifiedPrediction prediction;
};

/** Interleaved prediction table + router + distributor. */
class InterleavedVpTable
{
  public:
    /**
     * @param predictor The classified predictor whose storage backs the
     *        banks (owned).
     * @param config Bank geometry.
     */
    InterleavedVpTable(std::unique_ptr<ClassifiedPredictor> predictor,
                       const VpTableConfig &config);

    /**
     * Route one fetch bundle's value-producer PCs through the table.
     *
     * Allocation-free once the table has seen its widest bundle: the
     * router's scratch and the grants are reused across bundles.
     *
     * @param pcs PCs in trace order (one per value-producing
     *        instruction of the bundle).
     * @return One VpGrant per input pc, same order; valid until the
     *         next processBundle() call.
     */
    const std::vector<VpGrant> &
    processBundle(const std::vector<Addr> &pcs);

    /** Train the underlying predictor when an instruction resolves. */
    void update(Addr pc, const ClassifiedPrediction &prediction,
                Value actual);

    /** Release a granted prediction whose instruction was squashed. */
    void abandon(Addr pc) { classified->abandon(pc); }

    /** The classified predictor backing the banks. */
    ClassifiedPredictor &predictor() { return *classified; }

    /** @name Statistics */
    /// @{
    /** Individual instruction requests presented to the router. */
    std::uint64_t requests() const { return numRequests; }
    /** Merged table accesses attempted (groups after merging). */
    std::uint64_t accesses() const { return numAccesses; }
    /** Requests absorbed by merging (copies beyond the lead). */
    std::uint64_t mergedRequests() const { return numMerged; }
    /** Accesses denied by bank-port conflicts. */
    std::uint64_t deniedAccesses() const { return numDeniedAccesses; }
    /** Instructions left without a prediction due to conflicts. */
    std::uint64_t deniedRequests() const { return numDeniedRequests; }
    /** Additions the value distributor performed for merged copies. */
    std::uint64_t distributorAdditions() const { return numAdditions; }
    /** Requests filtered by NotPredictable profile hints (§4.2). */
    std::uint64_t hintFilteredRequests() const { return numHintFiltered; }
    /// @}

  private:
    /** A merged request: every copy of one pc in the bundle. */
    struct Group
    {
        /** Index of the lead (first) copy. */
        std::size_t lead;
        /** Index of the last copy so far. */
        std::size_t tail;
        std::size_t copies;
    };

    unsigned bankOf(Addr pc) const;

    std::unique_ptr<ClassifiedPredictor> classified;
    VpTableConfig cfg;

    /** @name Per-bundle scratch, reused across bundles */
    /// @{
    std::vector<VpGrant> grants;
    /** Groups in lead order (the router's priority order). */
    std::vector<Group> groups;
    /** Per request: index of the next copy of the same pc. */
    std::vector<std::size_t> nextCopy;
    std::vector<unsigned> bankLoad;
    /// @}

    std::uint64_t numRequests = 0;
    std::uint64_t numAccesses = 0;
    std::uint64_t numMerged = 0;
    std::uint64_t numDeniedAccesses = 0;
    std::uint64_t numDeniedRequests = 0;
    std::uint64_t numAdditions = 0;
    std::uint64_t numHintFiltered = 0;
};

} // namespace vpsim

#endif // VPSIM_VPTABLE_INTERLEAVED_TABLE_HPP
