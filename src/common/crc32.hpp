/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320): carry-less-multiply
 * folding where the CPU has it, table-driven slicing-by-8 elsewhere.
 *
 * Used as the integrity footer of the binary trace format: a sweep that
 * silently simulates a bit-flipped cache entry produces wrong figures
 * with no diagnostic, so every trace file carries a checksum and the
 * reader verifies it. The standard reflected CRC-32 ("crc32b", as in
 * zlib/PNG/gzip) keeps files checkable with external tools.
 *
 * Every trace load, streamed block and capture checksums its whole
 * payload, so update() has two kernels, picked once per process:
 *  - slicing-by-8 (detail::crc32Table): folds 8 bytes per step through
 *    eight 256-entry tables (table k advances a byte through k further
 *    zero bytes) and finishes the tail a byte at a time. It is the
 *    portable path, the tail of the folded kernel, and its test oracle.
 *  - PCLMULQDQ folding (detail::crc32Folded, x86-64 only): on inputs of
 *    64 bytes or more it folds whole 16-byte chunks four lanes at a
 *    time with the standard reflected-CRC constants (Gopal et al.,
 *    "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
 *    Instruction", 2009; the same constants as zlib's crc32_simd),
 *    Barrett-reduces to 32 bits, and leaves the last 0-15 bytes to the
 *    tables.
 * Both give the bytewise CRC's values, bit for bit.
 */

#ifndef VPSIM_COMMON_CRC32_HPP
#define VPSIM_COMMON_CRC32_HPP

#include <array>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/**
 * Slicing-by-8 CRC-32 of @p size bytes at @p bytes, continuing from
 * the raw (uninverted) register @p crc; returns the new register.
 */
inline std::uint32_t
crc32Table(std::uint32_t crc, const unsigned char *bytes, std::size_t size)
{
    const auto &t = crc32Tables;
    for (; size >= 8; bytes += 8, size -= 8) {
        const std::uint32_t lo = loadLe32(bytes) ^ crc;
        const std::uint32_t hi = loadLe32(bytes + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++bytes, --size)
        crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xffu];
    return crc;
}

#if defined(__x86_64__)

#define VPSIM_CRC32_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

VPSIM_CRC32_FOLD_TARGET inline __m128i
crc32Load(const unsigned char *at)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
}

/** One fold step: @p a's low and high halves times @p k's, plus @p next. */
VPSIM_CRC32_FOLD_TARGET inline __m128i
crc32Fold(__m128i a, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                       _mm_clmulepi64_si128(a, k, 0x11)),
                         next);
}

/**
 * crc32Table's contract, folding whole 16-byte chunks with PCLMULQDQ
 * when @p size >= 64 and finishing the tail with the tables. Call it
 * only where crc32FoldSupported() holds.
 */
VPSIM_CRC32_FOLD_TARGET inline std::uint32_t
crc32Folded(std::uint32_t crc, const unsigned char *bytes, std::size_t size)
{
    if (size < 64)
        return crc32Table(crc, bytes, size);
    // x^(4*128+32) mod P, x^(4*128-32) mod P: fold four lanes by 64 B.
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    // x^(128+32) mod P, x^(128-32) mod P: fold one lane by 16 B.
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    // x^64 mod P: 96 -> 64 bits.
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    // P' and mu for the Barrett reduction to 32 bits.
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    __m128i x1 = _mm_xor_si128(crc32Load(bytes),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = crc32Load(bytes + 16);
    __m128i x3 = crc32Load(bytes + 32);
    __m128i x4 = crc32Load(bytes + 48);
    bytes += 64;
    size -= 64;
    for (; size >= 64; bytes += 64, size -= 64) {
        x1 = crc32Fold(x1, k1k2, crc32Load(bytes));
        x2 = crc32Fold(x2, k1k2, crc32Load(bytes + 16));
        x3 = crc32Fold(x3, k1k2, crc32Load(bytes + 32));
        x4 = crc32Fold(x4, k1k2, crc32Load(bytes + 48));
    }
    x1 = crc32Fold(x1, k3k4, x2);
    x1 = crc32Fold(x1, k3k4, x3);
    x1 = crc32Fold(x1, k3k4, x4);
    for (; size >= 16; bytes += 16, size -= 16)
        x1 = crc32Fold(x1, k3k4, crc32Load(bytes));

    // 128 -> 96 -> 64 bits.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
        _mm_srli_si128(x1, 4));
    // Barrett reduction to 32 bits.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    crc = static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
    return crc32Table(crc, bytes, size);
}

#undef VPSIM_CRC32_FOLD_TARGET

/** True when this CPU has PCLMULQDQ and SSE4.1 (crc32Folded's needs). */
inline bool
crc32FoldSupported()
{
    // Safe before static constructors have run, as the cached flag
    // below may be evaluated from any translation unit's initializer.
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
}

/** The kernel choice, made once per process. */
inline const bool crc32Folds = crc32FoldSupported();

#endif

} // namespace detail

/** Incremental CRC-32: running checksum over a byte stream. */
class Crc32
{
  public:
    /** Fold @p size bytes at @p data into the checksum. */
    void
    update(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
#if defined(__x86_64__)
        if (size >= 64 && detail::crc32Folds) {
            state = detail::crc32Folded(state, bytes, size);
            return;
        }
#endif
        state = detail::crc32Table(state, bytes, size);
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
