#include "vm/memory.hpp"

#include <utility>

namespace vpsim
{

Memory::Memory(Memory &&other) noexcept
    : pages(std::move(other.pages)),
      memoNumber(other.memoNumber),
      memoPage(other.memoPage)
{
    other.pages.clear();
    other.forgetMemo();
}

Memory &
Memory::operator=(Memory &&other) noexcept
{
    if (this != &other) {
        pages = std::move(other.pages);
        memoNumber = other.memoNumber;
        memoPage = other.memoPage;
        other.pages.clear();
        other.forgetMemo();
    }
    return *this;
}

void
Memory::forgetMemo()
{
    memoNumber = noPage;
    memoPage = nullptr;
}

const Memory::Page *
Memory::findPage(Addr addr) const
{
    const Addr number = addr >> pageShift;
    if (number == memoNumber)
        return memoPage;
    const auto it = pages.find(number);
    if (it == pages.end())
        return nullptr; // untouched: no page, and the memo stays put
    memoNumber = number;
    memoPage = it->second.get();
    return memoPage;
}

Memory::Page &
Memory::touchPage(Addr addr)
{
    const Addr number = addr >> pageShift;
    if (number == memoNumber)
        return *memoPage;
    auto &slot = pages[number];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    memoNumber = number;
    memoPage = slot.get();
    return *slot;
}

std::uint8_t
Memory::read8(Addr addr) const
{
    const Page *page = findPage(addr);
    if (!page)
        return 0;
    return (*page)[addr & (pageBytes - 1)];
}

void
Memory::write8(Addr addr, std::uint8_t value)
{
    touchPage(addr)[addr & (pageBytes - 1)] = value;
}

Value
Memory::read64(Addr addr) const
{
    Value value = 0;
    const std::size_t offset = addr & (pageBytes - 1);
    if (offset > pageBytes - 8) { // crosses a page: byte by byte
        for (unsigned i = 0; i < 8; ++i)
            value |= static_cast<Value>(read8(addr + i)) << (8 * i);
        return value;
    }
    const Page *page = findPage(addr);
    if (!page)
        return 0;
    const std::uint8_t *bytes = page->data() + offset;
    for (unsigned i = 0; i < 8; ++i)
        value |= static_cast<Value>(bytes[i]) << (8 * i);
    return value;
}

void
Memory::write64(Addr addr, Value value)
{
    const std::size_t offset = addr & (pageBytes - 1);
    if (offset > pageBytes - 8) { // crosses a page: byte by byte
        for (unsigned i = 0; i < 8; ++i)
            write8(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
        return;
    }
    std::uint8_t *bytes = touchPage(addr).data() + offset;
    for (unsigned i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

void
Memory::writeBlock(Addr addr, const std::uint8_t *data, std::size_t size)
{
    for (std::size_t i = 0; i < size; ++i)
        write8(addr + i, data[i]);
}

void
Memory::writeWords(Addr addr, const std::vector<Value> &words)
{
    for (std::size_t i = 0; i < words.size(); ++i)
        write64(addr + i * 8, words[i]);
}

} // namespace vpsim
