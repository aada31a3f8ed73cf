/**
 * @file
 * perl mini-benchmark: anagram search, mirroring SPEC95's perl (whose
 * reference input is an anagram search script).
 *
 * For a rotating target word the program computes letter-count signatures
 * of every dictionary word, compares them byte-by-byte (with early-out
 * branches), and hashes words into a "seen" table. Character loads and
 * small-count updates dominate; the compare loop's early exits are data
 * dependent.
 */

#include "workloads/workload.hpp"

#include "common/rng.hpp"
#include "workloads/regs.hpp"
#include "vm/program_builder.hpp"

namespace vpsim
{

namespace
{

using namespace regs;

constexpr Addr dictBase = 0x800000;
constexpr Addr sigBase = 0x810000;   // 26-byte working signature
constexpr Addr tsigBase = 0x810040;  // 26-byte target signature
constexpr Addr seenBase = 0x820000;  // hash-count table
constexpr Addr outBase = 0x830000;


constexpr std::int64_t wordBytes = 8;
constexpr std::int64_t alphabet = 26;
constexpr std::int64_t seenMask = 1023;

/** Dictionary over a narrow alphabet so anagram pairs actually occur. */
std::vector<std::uint8_t>
makeDictionary(std::int64_t numWords, std::uint64_t seed)
{
    Rng rng(0x9e71a6 ^ seed);
    std::vector<std::uint8_t> dict(
        static_cast<std::size_t>(numWords * wordBytes));
    for (std::int64_t w = 0; w < numWords; ++w) {
        for (std::int64_t i = 0; i < wordBytes; ++i) {
            dict[static_cast<std::size_t>(w * wordBytes + i)] =
                static_cast<std::uint8_t>('a' + rng.nextBelow(8));
        }
    }
    // Plant some exact anagrams: copies of earlier words with two letters
    // swapped.
    for (std::int64_t w = 16; w < numWords; w += 16) {
        const auto word = static_cast<std::size_t>(w * wordBytes);
        const auto src = static_cast<std::size_t>((w - 16) * wordBytes);
        for (std::size_t i = 0; i < static_cast<std::size_t>(wordBytes); ++i)
            dict[word + i] = dict[src + i];
        std::swap(dict[word + 1], dict[word + 5]);
    }
    return dict;
}

} // namespace

Workload
buildPerl(const WorkloadParams &params)
{
    const std::int64_t numWords =
        192 * static_cast<std::int64_t>(params.scale);
    ProgramBuilder b("perl");

    // s0 = word index, s1 = dict base, s2 = sig base, s3 = target sig
    // base, s4 = matches this pass, s5 = target word index, s6 = seen
    // base, s7 = total matches, s8 = passes.
    Label outer = b.newLabel();
    Label clearT = b.newLabel();
    Label countT = b.newLabel();
    Label wordLoop = b.newLabel();
    Label clearS = b.newLabel();
    Label countS = b.newLabel();
    Label compare = b.newLabel();
    Label noMatch = b.newLabel();
    Label matched = b.newLabel();
    Label hashWord = b.newLabel();
    Label nextWord = b.newLabel();

    b.li(s5, 0);
    b.li(s7, 0);
    b.li(s8, 0);

    b.bind(outer);
    b.li(s1, dictBase);
    b.li(s2, sigBase);
    b.li(s3, tsigBase);
    b.li(s6, seenBase);
    b.li(s4, 0);
    b.addi(s8, s8, 1);
    // Rotate the target word.
    b.addi(s5, s5, 1);
    b.li(t0, numWords);
    b.rem(s5, s5, t0);

    // --- build the target signature ---
    b.li(t0, 0);
    b.bind(clearT);
    b.add(t1, t0, s3);
    b.sb(zero, t1, 0);
    b.addi(t0, t0, 1);
    b.li(t2, alphabet);
    b.blt(t0, t2, clearT);

    b.slli(t3, s5, 3);           // target word address
    b.add(t3, t3, s1);
    b.li(t0, 0);
    b.bind(countT);
    b.add(t1, t3, t0);
    b.lbu(t2, t1, 0);
    b.addi(t2, t2, -'a');
    b.add(t2, t2, s3);
    b.lbu(t4, t2, 0);
    b.addi(t4, t4, 1);
    b.sb(t4, t2, 0);
    b.addi(t0, t0, 1);
    b.li(t5, wordBytes);
    b.blt(t0, t5, countT);

    // --- scan the dictionary ---
    b.li(s0, 0);
    b.bind(wordLoop);
    // clear working signature
    b.li(t0, 0);
    b.bind(clearS);
    b.add(t1, t0, s2);
    b.sb(zero, t1, 0);
    b.addi(t0, t0, 1);
    b.li(t2, alphabet);
    b.blt(t0, t2, clearS);
    // count letters of word s0
    b.slli(t3, s0, 3);
    b.add(t3, t3, s1);
    b.li(t0, 0);
    b.bind(countS);
    b.add(t1, t3, t0);
    b.lbu(t2, t1, 0);
    b.addi(t2, t2, -'a');
    b.add(t2, t2, s2);
    b.lbu(t4, t2, 0);
    b.addi(t4, t4, 1);
    b.sb(t4, t2, 0);
    b.addi(t0, t0, 1);
    b.li(t5, wordBytes);
    b.blt(t0, t5, countS);
    // compare signatures with early exit
    b.li(t0, 0);
    b.bind(compare);
    b.add(t1, t0, s2);
    b.lbu(t2, t1, 0);
    b.add(t1, t0, s3);
    b.lbu(t4, t1, 0);
    b.bne(t2, t4, noMatch);
    b.addi(t0, t0, 1);
    b.li(t5, alphabet);
    b.blt(t0, t5, compare);
    b.bind(matched);
    b.beq(s0, s5, hashWord);     // a word is not its own anagram
    b.addi(s4, s4, 1);
    b.addi(s7, s7, 1);
    b.j(hashWord);
    b.bind(noMatch);

    // hash the word into the seen table
    b.bind(hashWord);
    b.slli(t3, s0, 3);
    b.add(t3, t3, s1);
    b.li(t6, 0);                 // h
    b.li(t0, 0);
    Label hashLoop = b.newLabel();
    b.bind(hashLoop);
    b.add(t1, t3, t0);
    b.lbu(t2, t1, 0);
    b.slli(t7, t6, 5);
    b.sub(t7, t7, t6);           // h*31
    b.add(t6, t7, t2);
    b.addi(t0, t0, 1);
    b.li(t5, wordBytes);
    b.blt(t0, t5, hashLoop);
    b.andi(t6, t6, seenMask);
    b.slli(t6, t6, 3);
    b.add(t6, t6, s6);
    b.ld(t7, t6, 0);
    b.addi(t7, t7, 1);
    b.st(t7, t6, 0);             // seen[h]++

    b.bind(nextWord);
    b.addi(s0, s0, 1);
    b.li(t5, numWords);
    b.blt(s0, t5, wordLoop);
    // record the pass result
    b.andi(t0, s8, 0xff);
    b.slli(t0, t0, 3);
    b.li(t1, outBase);
    b.add(t0, t0, t1);
    b.st(s4, t0, 0);
    b.j(outer);

    Program program = b.build();

    Memory mem;
    const auto dict = makeDictionary(numWords, params.seed);
    mem.writeBlock(dictBase, dict.data(), dict.size());

    return Workload{"perl", std::move(program), std::move(mem)};
}

} // namespace vpsim
