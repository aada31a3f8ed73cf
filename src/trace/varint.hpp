/**
 * @file
 * LEB128 varints and zigzag mapping for the v3 block trace format.
 *
 * Trace fields are strongly clustered: sequence numbers advance by one
 * and PCs by one instruction. Encoding each field as a zigzag delta
 * against its natural predecessor turns almost every 8-byte field into
 * a 1-byte varint, which is what makes a 100M-instruction v3 trace a
 * disk-streamable artifact instead of a 4.5 GB one (see
 * docs/TRACE_FORMAT.md §v3).
 *
 * Encoding is unsigned LEB128 (7 payload bits per byte, continuation in
 * the top bit, little-endian groups); signed deltas are first folded to
 * unsigned with the standard zigzag map so small negative deltas stay
 * short. A u64 never needs more than 10 encoded bytes. The decoder is
 * takeVarint in trace_v3.cpp, inside the v3 reader's record loop,
 * which checks bounds once per record.
 */

#ifndef VPSIM_TRACE_VARINT_HPP
#define VPSIM_TRACE_VARINT_HPP

#include <cstddef>
#include <cstdint>

namespace vpsim
{

/** Largest encoded size of one u64 varint (ceil(64 / 7) bytes). */
inline constexpr std::size_t maxVarintBytes = 10;

/** Map a signed delta to unsigned so small magnitudes encode short. */
inline constexpr std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

/** Inverse of zigzagEncode. */
inline constexpr std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1u);
}

/**
 * Write @p value at @p out as an unsigned LEB128 varint, which takes at
 * most maxVarintBytes bytes.
 *
 * @return The byte after the varint.
 */
inline unsigned char *
putVarint(unsigned char *out, std::uint64_t value)
{
    while (value >= 0x80u) {
        *out++ = static_cast<unsigned char>(value) | 0x80u;
        value >>= 7;
    }
    *out++ = static_cast<unsigned char>(value);
    return out;
}

/** putVarint of a zigzag-folded signed delta. */
inline unsigned char *
putSignedVarint(unsigned char *out, std::int64_t value)
{
    return putVarint(out, zigzagEncode(value));
}

} // namespace vpsim

#endif // VPSIM_TRACE_VARINT_HPP
