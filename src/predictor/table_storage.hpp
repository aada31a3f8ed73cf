/**
 * @file
 * Prediction-table storage shared by all predictors.
 *
 * capacity == 0 models the paper's "infinite table" assumption (§3.1):
 * one entry per static instruction. A nonzero capacity models a real
 * direct-mapped, tagged table (entries are evicted on index conflicts),
 * used by the finite configurations in Section 5 style experiments and
 * the hybrid predictor's "relatively small stride table".
 *
 * The infinite table is a dense array indexed by static instruction:
 * the slot for pc is pc / instBytes - lo, where the window [lo, lo +
 * size) covers every pc allocated so far. The benchmarks have at most a
 * few hundred static instructions, so the whole table sits in L1 and a
 * probe is one subtract, one compare and one load. findOrAllocate()
 * widens the window (doubling it upwards, extending it down to a lower
 * pc); find() never does, and misses outside it. Allocating an
 * unaligned pc, or a window wider than maxDenseSpan static
 * instructions (a salvaged or fuzzed trace can carry any pc), is a
 * fatal error rather than a silent fallback.
 *
 * Pointer/reference validity: a pointer returned by find()/
 * findOrAllocate() stays valid only until the next findOrAllocate()
 * on the same table (the window may be reallocated). All callers in
 * this repository finish with an entry before the next probe; new
 * callers must do the same.
 */

#ifndef VPSIM_PREDICTOR_TABLE_STORAGE_HPP
#define VPSIM_PREDICTOR_TABLE_STORAGE_HPP

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace vpsim
{

/**
 * Widest pc range, in static instructions, an infinite table may cover:
 * at the cap a stride table's 48-byte slots take 3 MiB, an FCM context
 * table's 80-byte slots 5 MiB.
 */
inline constexpr std::size_t maxDenseSpan = std::size_t{1} << 16;

/**
 * Keyed storage for per-static-instruction predictor state.
 *
 * @tparam Entry Plain state struct; default-constructed on allocation.
 */
template <typename Entry>
class PredictionTable
{
  public:
    /**
     * @param table_capacity 0 for an unbounded table; otherwise a
     *        power-of-two number of direct-mapped, tagged entries.
     */
    explicit PredictionTable(std::size_t table_capacity = 0)
        : capacity(table_capacity)
    {
        if (capacity != 0) {
            fatalIf((capacity & (capacity - 1)) != 0,
                    "prediction table capacity must be a power of two");
            slots.resize(capacity);
        }
    }

    /** Find the entry for @p pc, or nullptr on a miss. */
    Entry *find(Addr pc) { return findIn(*this, pc); }

    /** Const find. */
    const Entry *find(Addr pc) const { return findIn(*this, pc); }

    /**
     * Return the entry for @p pc, allocating (and possibly evicting the
     * direct-mapped victim) when absent. @p allocated reports whether a
     * fresh entry was created.
     */
    Entry &
    findOrAllocate(Addr pc, bool *allocated = nullptr)
    {
        if (capacity == 0) {
            if (pc % instBytes != 0) [[unlikely]]
                rejectPc(pc, "is not instruction aligned");
            std::size_t index = denseIndex(pc);
            if (index >= dense.size())
                index = cover(pc);
            DenseSlot &slot = dense[index];
            const bool fresh = !slot.valid;
            if (fresh) {
                slot.valid = true;
                slot.entry = Entry{};
                ++numLive;
            }
            if (allocated)
                *allocated = fresh;
            return slot.entry;
        }
        Slot &slot = slots[indexOf(pc)];
        const bool fresh = !slot.valid || slot.tag != pc;
        if (fresh) {
            slot.valid = true;
            slot.tag = pc;
            slot.entry = Entry{};
        }
        if (allocated)
            *allocated = fresh;
        return slot.entry;
    }

    /** True for the capacity == 0 "infinite table" configuration. */
    bool isInfinite() const { return capacity == 0; }

    /** Number of live entries (resident static instructions). */
    std::size_t
    size() const
    {
        if (capacity == 0)
            return numLive;
        std::size_t live = 0;
        for (const Slot &slot : slots)
            live += slot.valid ? 1 : 0;
        return live;
    }

    /** Drop all state (the infinite table keeps its window). */
    void
    clear()
    {
        for (DenseSlot &slot : dense)
            slot.valid = false;
        numLive = 0;
        for (Slot &slot : slots)
            slot.valid = false;
    }

  private:
    /** Direct-mapped slot of the finite, tagged configuration. */
    struct Slot
    {
        bool valid = false;
        Addr tag = 0;
        Entry entry{};
    };

    /** Infinite-table slot: the index is the tag. */
    struct DenseSlot
    {
        bool valid = false;
        Entry entry{};
    };

    /** find() for both constnesses (Self is this class, maybe const). */
    template <typename Self>
    static auto
    findIn(Self &self, Addr pc) -> decltype(&self.slots[0].entry)
    {
        if (self.capacity == 0) {
            // An unaligned pc was never allocated (findOrAllocate()
            // rejects it), so it is a plain miss here.
            const std::size_t index = self.denseIndex(pc);
            if (pc % instBytes != 0 || index >= self.dense.size() ||
                !self.dense[index].valid)
                return nullptr;
            return &self.dense[index].entry;
        }
        auto &slot = self.slots[self.indexOf(pc)];
        return (slot.valid && slot.tag == pc) ? &slot.entry : nullptr;
    }

    std::size_t
    indexOf(Addr pc) const
    {
        // Instructions are word aligned; drop the low bits first.
        return (pc / instBytes) & (capacity - 1);
    }

    /**
     * Dense slot of @p pc relative to the window. A pc below the window
     * wraps to an index past its end, so one compare catches both
     * sides.
     */
    std::size_t
    denseIndex(Addr pc) const
    {
        return static_cast<std::size_t>(pc / instBytes - lo);
    }

    /** Widen the window to cover @p pc; returns its slot index. */
    std::size_t
    cover(Addr pc)
    {
        const Addr word = pc / instBytes;
        if (dense.empty()) {
            lo = word;
            dense.resize(1);
            return 0;
        }
        const Addr new_lo = std::min(lo, word);
        const auto span = static_cast<std::size_t>(
            std::max<Addr>(lo + dense.size(), word + 1) - new_lo);
        if (span > maxDenseSpan) [[unlikely]] {
            std::ostringstream oss;
            oss << "would widen the infinite prediction table to " << span
                << " static instructions (limit " << maxDenseSpan << ")";
            rejectPc(pc, oss.str());
        }
        if (word < lo) {
            std::vector<DenseSlot> widened(span);
            std::move(dense.begin(), dense.end(),
                      widened.begin() +
                          static_cast<std::ptrdiff_t>(lo - word));
            dense.swap(widened);
            lo = word;
        } else {
            dense.resize(
                std::min(std::max(span, 2 * dense.size()), maxDenseSpan));
        }
        return static_cast<std::size_t>(word - lo);
    }

    [[noreturn]] static void
    rejectPc(Addr pc, const std::string &why)
    {
        std::ostringstream oss;
        oss << "prediction table pc 0x" << std::hex << pc << std::dec
            << ' ' << why;
        fatal(oss.str());
    }

    std::size_t capacity;

    /** @name Infinite (capacity == 0) dense storage */
    /// @{
    std::vector<DenseSlot> dense;
    /** Static-instruction index (pc / instBytes) of dense[0]. */
    Addr lo = 0;
    std::size_t numLive = 0;
    /// @}

    /** Finite direct-mapped storage. */
    std::vector<Slot> slots;
};

} // namespace vpsim

#endif // VPSIM_PREDICTOR_TABLE_STORAGE_HPP
