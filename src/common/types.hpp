/**
 * @file
 * Fundamental scalar types shared across the simulator.
 */

#ifndef VPSIM_COMMON_TYPES_HPP
#define VPSIM_COMMON_TYPES_HPP

#include <cstddef>
#include <cstdint>

namespace vpsim
{

/** Simulated clock cycle count. */
using Cycle = std::uint64_t;

/** Program counter / instruction address in the simulated machine. */
using Addr = std::uint64_t;

/** Architectural data value (the mini ISA is a 64-bit machine). */
using Value = std::uint64_t;

/** Dynamic instruction sequence number (appearance order in the trace). */
using SeqNum = std::uint64_t;

/** Architectural register index. */
using RegIndex = std::uint8_t;

/** Sentinel meaning "no register operand". */
inline constexpr RegIndex invalidReg = 0xff;

/**
 * Entries of a table indexed by register: one per RegIndex value, not
 * per architectural register. A trace read from disk may carry any
 * byte in rd, rs1 and rs2 (the reader validates only the opcode), so
 * every register-indexed table covers all of them and needs no range
 * check. producesValue() never holds for r0 or invalidReg, so their
 * entries are never written.
 */
inline constexpr std::size_t registerFileSize = 256;
static_assert(registerFileSize == std::size_t{1} << (8 * sizeof(RegIndex)));

/** Sentinel for "no cycle" / "not yet scheduled". */
inline constexpr Cycle invalidCycle = ~Cycle{0};

/** Sentinel for "no sequence number" (e.g. no producer). */
inline constexpr SeqNum invalidSeqNum = ~SeqNum{0};

} // namespace vpsim

#endif // VPSIM_COMMON_TYPES_HPP
