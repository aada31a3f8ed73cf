/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven,
 * slicing-by-8.
 *
 * Used as the integrity footer of the binary trace format: a sweep that
 * silently simulates a bit-flipped cache entry produces wrong figures
 * with no diagnostic, so every trace file carries a checksum and the
 * reader verifies it. The standard reflected CRC-32 ("crc32b", as in
 * zlib/PNG/gzip) keeps files checkable with external tools.
 *
 * Every trace load, streamed block and capture checksums its whole
 * payload, so update() folds 8 bytes per step through eight 256-entry
 * tables (table k advances a byte through k further zero bytes) and
 * finishes the tail a byte at a time. The values are the bytewise
 * CRC's, bit for bit.
 */

#ifndef VPSIM_COMMON_CRC32_HPP
#define VPSIM_COMMON_CRC32_HPP

#include <array>
#include <cstddef>
#include <cstdint>

namespace vpsim
{

namespace detail
{

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables
makeCrc32Tables()
{
    Crc32Tables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
        tables[0][i] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
        }
    }
    return tables;
}

inline constexpr Crc32Tables crc32Tables = makeCrc32Tables();

/** Little-endian u32 at @p p, whatever the host byte order. */
constexpr std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace detail

/** Incremental CRC-32: running checksum over a byte stream. */
class Crc32
{
  public:
    /** Fold @p size bytes at @p data into the checksum. */
    void
    update(const void *data, std::size_t size)
    {
        const auto &t = detail::crc32Tables;
        const auto *bytes = static_cast<const unsigned char *>(data);
        std::uint32_t crc = state;
        for (; size >= 8; bytes += 8, size -= 8) {
            const std::uint32_t lo = detail::loadLe32(bytes) ^ crc;
            const std::uint32_t hi = detail::loadLe32(bytes + 4);
            crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
                  t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
                  t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
                  t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
        }
        for (; size > 0; ++bytes, --size)
            crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xffu];
        state = crc;
    }

    /** Checksum of everything folded in so far. */
    std::uint32_t value() const { return state ^ 0xffffffffu; }

  private:
    std::uint32_t state = 0xffffffffu;
};

/** One-shot CRC-32 of @p size bytes at @p data. */
inline std::uint32_t
crc32(const void *data, std::size_t size)
{
    Crc32 crc;
    crc.update(data, size);
    return crc.value();
}

} // namespace vpsim

#endif // VPSIM_COMMON_CRC32_HPP
