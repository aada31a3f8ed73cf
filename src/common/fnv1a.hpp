/**
 * @file
 * FNV-1a, 64-bit: the hash behind result-store identities (per-grid
 * store hashes), per-cell keys, retry jitter seeds, and the streaming
 * soak's record digest.
 *
 * The standard offset basis and prime (Fowler/Noll/Vo) keep values
 * checkable with any external FNV-1a implementation.
 */

#ifndef VPSIM_COMMON_FNV1A_HPP
#define VPSIM_COMMON_FNV1A_HPP

#include <cstdint>
#include <string_view>

namespace vpsim
{

constexpr std::uint64_t fnv1aBasis = 14695981039346656037ull;
constexpr std::uint64_t fnv1aPrime = 1099511628211ull;

/** FNV-1a over the bytes of @p text, starting from basis ^ @p seed. */
constexpr std::uint64_t
fnv1a(std::string_view text, std::uint64_t seed = 0)
{
    std::uint64_t hash = fnv1aBasis ^ seed;
    for (const char ch : text) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= fnv1aPrime;
    }
    return hash;
}

/**
 * Continue @p hash over the eight little-endian bytes of @p value, so
 * integers fold into an identity without being formatted as text.
 */
constexpr std::uint64_t
fnv1aFold(std::uint64_t hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xffu;
        hash *= fnv1aPrime;
    }
    return hash;
}

} // namespace vpsim

#endif // VPSIM_COMMON_FNV1A_HPP
