/**
 * @file
 * Parity tests pinning the dense PredictionTable to the semantics of
 * the std::unordered_map implementation it replaced.
 *
 * The reference table below reimplements the legacy storage exactly:
 * a hash map for the capacity == 0 "infinite table" (grows, never
 * evicts) and a direct-mapped tagged array for finite capacities
 * (evicts on index conflict). A seeded random operation stream is
 * applied to both tables and every observable — hit/miss, the
 * allocated flag, entry contents, live size — must agree at every
 * step, across all three capacity classes the experiments use. The pc
 * pool spans two regions with a gap between them, and pcs arrive in
 * random order, so the infinite table's window grows both upwards and
 * downwards, and across the gap.
 *
 * A second suite drives every predictor kind through the classified
 * stack twice — once via the split predict()/update() pair and once
 * via the fused predictAndTrain() — asserting identical predictions and
 * statistics, on
 * infinite and finite (evicting) tables alike.
 */

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "predictor/factory.hpp"
#include "predictor/table_storage.hpp"

namespace vpsim
{
namespace
{

/** Per-pc state rich enough to detect a lost or stale entry. */
struct ParityEntry
{
    std::uint64_t stamp = 0;
    std::int64_t counter = 0;
};

/**
 * The legacy PredictionTable semantics, verbatim: what the class did
 * before the dense rewrite (unordered_map when unbounded,
 * direct-mapped tagged slots otherwise).
 */
template <typename Entry>
class LegacyPredictionTable
{
  public:
    explicit LegacyPredictionTable(std::size_t table_capacity)
        : capacity(table_capacity)
    {
        if (capacity != 0)
            slots.resize(capacity);
    }

    Entry *
    find(Addr pc)
    {
        if (capacity == 0) {
            auto it = map.find(pc);
            return it == map.end() ? nullptr : &it->second;
        }
        Slot &slot = slots[indexOf(pc)];
        return (slot.valid && slot.tag == pc) ? &slot.entry : nullptr;
    }

    Entry &
    findOrAllocate(Addr pc, bool *allocated)
    {
        if (capacity == 0) {
            auto [it, fresh] = map.try_emplace(pc);
            *allocated = fresh;
            return it->second;
        }
        Slot &slot = slots[indexOf(pc)];
        const bool fresh = !slot.valid || slot.tag != pc;
        if (fresh) {
            slot.valid = true;
            slot.tag = pc;
            slot.entry = Entry{};
        }
        *allocated = fresh;
        return slot.entry;
    }

    std::size_t
    size() const
    {
        if (capacity == 0)
            return map.size();
        std::size_t live = 0;
        for (const Slot &slot : slots)
            live += slot.valid ? 1 : 0;
        return live;
    }

    void
    clear()
    {
        map.clear();
        for (Slot &slot : slots)
            slot.valid = false;
    }

  private:
    struct Slot
    {
        bool valid = false;
        Addr tag = 0;
        Entry entry{};
    };

    std::size_t
    indexOf(Addr pc) const
    {
        return (pc / instBytes) & (capacity - 1);
    }

    std::size_t capacity;
    std::unordered_map<Addr, Entry> map;
    std::vector<Slot> slots;
};

class TableParity : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(TableParity, RandomizedOpsMatchTheLegacyHashMap)
{
    const std::size_t capacity = GetParam();
    PredictionTable<ParityEntry> table(capacity);
    LegacyPredictionTable<ParityEntry> legacy(capacity);

    // Word-aligned pc pool sized to exercise direct-mapped conflicts at
    // capacity 16 (4x aliasing) and window growth at capacity 0: a
    // second, smaller region sits well below the first, so its first
    // allocation extends the window down across the gap.
    Rng rng(0x7a617269ull + capacity);
    std::vector<Addr> pool;
    for (std::size_t i = 0; i < 4096; ++i)
        pool.push_back(0x20000 + i * instBytes);
    for (std::size_t i = 0; i < 512; ++i)
        pool.push_back(0x1000 + i * instBytes);

    std::uint64_t stamp = 0;
    for (int op = 0; op < 60000; ++op) {
        const Addr pc = pool[rng.nextBelow(pool.size())];
        switch (rng.nextBelow(8)) {
          case 0: // Pure lookup.
          case 1: {
            ParityEntry *mine = table.find(pc);
            ParityEntry *ref = legacy.find(pc);
            ASSERT_EQ(mine != nullptr, ref != nullptr)
                << "hit/miss diverged on pc " << pc << " at op " << op;
            if (mine) {
                EXPECT_EQ(mine->stamp, ref->stamp);
                EXPECT_EQ(mine->counter, ref->counter);
            }
            break;
          }
          case 2: { // Occasional full reset.
            if (rng.nextBelow(1000) == 0) {
                table.clear();
                legacy.clear();
            }
            break;
          }
          default: { // Allocate (possibly evicting) and mutate.
            bool mine_fresh = false;
            bool ref_fresh = false;
            ParityEntry &mine = table.findOrAllocate(pc, &mine_fresh);
            ParityEntry &ref = legacy.findOrAllocate(pc, &ref_fresh);
            ASSERT_EQ(mine_fresh, ref_fresh)
                << "eviction decision diverged on pc " << pc << " at op "
                << op;
            EXPECT_EQ(mine.stamp, ref.stamp)
                << "resident state diverged on pc " << pc << " at op "
                << op;
            EXPECT_EQ(mine.counter, ref.counter);
            ++stamp;
            mine.stamp = stamp;
            ref.stamp = stamp;
            mine.counter += static_cast<std::int64_t>(pc & 0xff);
            ref.counter += static_cast<std::int64_t>(pc & 0xff);
            break;
          }
        }
        if ((op & 0xfff) == 0) {
            ASSERT_EQ(table.size(), legacy.size()) << "at op " << op;
        }
    }
    EXPECT_EQ(table.size(), legacy.size());
}

INSTANTIATE_TEST_SUITE_P(Capacities, TableParity,
                         ::testing::Values(std::size_t{0},
                                           std::size_t{16},
                                           std::size_t{1024}),
                         [](const auto &info) {
                             return info.param == 0
                                 ? std::string("infinite")
                                 : "finite" +
                                       std::to_string(info.param);
                         });

struct PredictorParityCase
{
    PredictorKind kind;
    const char *name;
};

class PredictorParity
    : public ::testing::TestWithParam<PredictorParityCase>
{
};

TEST_P(PredictorParity, FusedAndSplitPathsAgreeAcrossCapacities)
{
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{16},
                                       std::size_t{1024}}) {
        auto split = makeClassifiedPredictor(GetParam().kind, capacity);
        auto fused = makeClassifiedPredictor(GetParam().kind, capacity);

        // Synthetic stream with per-pc value locality: constants,
        // strides, and noise, over enough distinct pcs to force
        // finite-table evictions.
        Rng rng(0xfeedull ^ static_cast<std::uint64_t>(capacity));
        std::vector<Addr> pcs;
        for (std::size_t i = 0; i < 512; ++i)
            pcs.push_back(0x4000 + i * instBytes);
        std::unordered_map<Addr, Value> current;

        for (int i = 0; i < 40000; ++i) {
            const Addr pc = pcs[rng.nextBelow(pcs.size())];
            Value &value = current[pc];
            switch (pc % 3) {
              case 0: break;                       // constant
              case 1: value += 8; break;           // strided
              default:
                if (rng.nextBelow(4) == 0)         // mostly stable
                    value = rng.nextBelow(1 << 20);
                break;
            }

            const ClassifiedPrediction via_split = split->predict(pc);
            split->update(pc, via_split, value);
            const ClassifiedPrediction via_fused =
                fused->predictAndTrain(pc, value);

            ASSERT_EQ(via_split.predicted, via_fused.predicted)
                << GetParam().name << " capacity " << capacity
                << " diverged at event " << i;
            if (via_split.predicted) {
                ASSERT_EQ(via_split.value, via_fused.value)
                    << GetParam().name << " capacity " << capacity
                    << " at event " << i;
            }
            ASSERT_EQ(via_split.rawAvailable, via_fused.rawAvailable);
        }
        EXPECT_EQ(split->lookups(), fused->lookups());
        EXPECT_EQ(split->predictionsMade(), fused->predictionsMade());
        EXPECT_EQ(split->predictionsCorrect(),
                  fused->predictionsCorrect());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PredictorParity,
    ::testing::Values(
        PredictorParityCase{PredictorKind::LastValue, "last-value"},
        PredictorParityCase{PredictorKind::Stride, "stride"},
        PredictorParityCase{PredictorKind::TwoDeltaStride, "2-delta"},
        PredictorParityCase{PredictorKind::Hybrid, "hybrid"},
        PredictorParityCase{PredictorKind::Fcm, "fcm"}),
    [](const auto &info) { return std::string(info.param.name) ==
                                  "2-delta"
                               ? std::string("two_delta")
                               : std::string(info.param.name) ==
                                     "last-value"
                                   ? std::string("last_value")
                                   : std::string(info.param.name); });

} // namespace
} // namespace vpsim
