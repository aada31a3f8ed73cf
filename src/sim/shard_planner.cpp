#include "sim/shard_planner.hpp"

#include "common/logging.hpp"

namespace vpsim
{

std::vector<Shard>
ShardPlanner::plan(const std::vector<std::uint32_t> &missing_cells,
                   std::uint32_t shard_cells)
{
    panicIf(shard_cells == 0, "shard size must be positive");
    std::vector<Shard> shards;
    std::size_t i = 0;
    while (i < missing_cells.size()) {
        Shard shard;
        shard.firstCell = missing_cells[i];
        std::uint32_t last = missing_cells[i];
        std::size_t j = i + 1;
        while (j < missing_cells.size() &&
               missing_cells[j] == last + 1 &&
               static_cast<std::uint32_t>(j - i) < shard_cells) {
            last = missing_cells[j];
            ++j;
        }
        shard.lastCell = last;
        shards.push_back(shard);
        i = j;
    }
    return shards;
}

std::pair<Shard, Shard>
ShardPlanner::bisect(const Shard &shard)
{
    panicIf(shard.size() < 2, "cannot bisect a single-cell shard");
    const std::uint32_t mid =
        shard.firstCell + (shard.size() / 2) - 1;
    Shard low;
    low.firstCell = shard.firstCell;
    low.lastCell = mid;
    Shard high;
    high.firstCell = mid + 1;
    high.lastCell = shard.lastCell;
    return {low, high};
}

} // namespace vpsim
