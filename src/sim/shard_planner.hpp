/**
 * @file
 * Shard planning: carving a grid's missing cells into worker-sized,
 * bisectable work units.
 *
 * A shard is an inclusive range of *global* cell indices. The planner
 * only ever emits contiguous runs of cells that still need computing —
 * after a resume, the missing set can be fragmented, and every gap
 * simply starts a new shard. Resume never depends on the plan: the
 * result store merges files however their ranges were drawn.
 *
 * Bisection is the poisoned-shard recovery step: a shard that keeps
 * dying is split in half and each half retried fresh, recursively,
 * until the failure is isolated to a single cell — which is then
 * quarantined as one NaN cell. One bad cell costs one cell.
 */

#ifndef VPSIM_SIM_SHARD_PLANNER_HPP
#define VPSIM_SIM_SHARD_PLANNER_HPP

#include <cstdint>
#include <utility>
#include <vector>

namespace vpsim
{

/** One contiguous, inclusive range of global cell indices. */
struct Shard
{
    std::uint32_t firstCell = 0;
    std::uint32_t lastCell = 0;

    std::uint32_t size() const { return lastCell - firstCell + 1; }
};

class ShardPlanner
{
  public:
    /**
     * Plan shards over @p missing_cells (sorted, deduplicated global
     * indices): contiguous runs, split so no shard exceeds
     * @p shard_cells, in cell order.
     */
    static std::vector<Shard> plan(
        const std::vector<std::uint32_t> &missing_cells,
        std::uint32_t shard_cells);

    /** Split @p shard into two halves (@p shard must span >= 2 cells). */
    static std::pair<Shard, Shard> bisect(const Shard &shard);
};

} // namespace vpsim

#endif // VPSIM_SIM_SHARD_PLANNER_HPP
