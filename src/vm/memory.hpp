/**
 * @file
 * Sparse paged byte-addressable memory for the interpreter.
 *
 * Pages are allocated lazily on first touch; unwritten memory reads as
 * zero. This keeps multi-megabyte workload heaps cheap while staying fully
 * deterministic.
 *
 * Every interpreted load and store goes through here, and consecutive
 * accesses mostly hit the same page, so the last page found or touched
 * is memoized in front of the page map. The memo is mutable (reads set
 * it), so a Memory is never shared between threads: each capture
 * builds its own.
 */

#ifndef VPSIM_VM_MEMORY_HPP
#define VPSIM_VM_MEMORY_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace vpsim
{

/** Sparse 64-bit address space. */
class Memory
{
  public:
    Memory() = default;

    /** Moves the pages; the moved-from Memory is left empty. */
    Memory(Memory &&other) noexcept;
    Memory &operator=(Memory &&other) noexcept;

    /** Read one byte; untouched memory reads as zero. */
    std::uint8_t read8(Addr addr) const;

    /** Write one byte. */
    void write8(Addr addr, std::uint8_t value);

    /** Read a little-endian 64-bit word (no alignment requirement). */
    Value read64(Addr addr) const;

    /** Write a little-endian 64-bit word. */
    void write64(Addr addr, Value value);

    /** Copy a byte range into memory. */
    void writeBlock(Addr addr, const std::uint8_t *data, std::size_t size);

    /** Convenience: write a sequence of 64-bit words starting at @p addr. */
    void writeWords(Addr addr, const std::vector<Value> &words);

    /** Number of resident pages (for tests). */
    std::size_t residentPages() const { return pages.size(); }

  private:
    static constexpr std::size_t pageShift = 12;
    static constexpr std::size_t pageBytes = std::size_t{1} << pageShift;

    using Page = std::array<std::uint8_t, pageBytes>;

    /** Page number the memo never holds: addr >> pageShift < 2^52. */
    static constexpr Addr noPage = ~Addr{0};

    const Page *findPage(Addr addr) const;
    Page &touchPage(Addr addr);
    void forgetMemo();

    std::unordered_map<Addr, std::unique_ptr<Page>> pages;
    mutable Addr memoNumber = noPage; ///< Page number of memoPage.
    mutable Page *memoPage = nullptr; ///< Last page found or touched.
};

} // namespace vpsim

#endif // VPSIM_VM_MEMORY_HPP
