/**
 * @file
 * compress mini-benchmark: LZW-style adaptive compression, mirroring
 * SPEC95's compress95 (adaptive Lempel-Ziv coding).
 *
 * The hot loop hashes (prefix, next-char) pairs into an open-addressed
 * dictionary. Hash values and probe results are data dependent, which is
 * why the real compress is among the least value-predictable SPEC
 * programs; the emit counter and output cursor provide the few stride
 * patterns the predictor can catch.
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

constexpr Addr inputBase = 0x300000;
constexpr Addr htKeysBase = 0x310000;
constexpr Addr htCodesBase = 0x320000;
constexpr Addr outBase = 0x400000;


constexpr std::int64_t tableMask = 4095;
constexpr std::int64_t tableCap = 4000;

/** Deterministic text-like corpus: Zipf-ish words over a small lexicon. */
std::vector<std::uint8_t>
makeCorpus(std::size_t size, std::uint64_t seed)
{
    Rng rng(0xc0dec0de ^ seed);
    // Lexicon of short lowercase words.
    std::vector<std::string> lexicon;
    for (int i = 0; i < 80; ++i) {
        const std::size_t len = 3 + rng.nextBelow(6);
        std::string word;
        for (std::size_t j = 0; j < len; ++j)
            word.push_back(static_cast<char>('a' + rng.nextBelow(26)));
        lexicon.push_back(word);
    }
    std::vector<std::uint8_t> corpus;
    corpus.reserve(size + 16);
    while (corpus.size() < size) {
        // Zipf-like skew: prefer low lexicon indices.
        std::size_t pick = rng.nextBelow(80);
        pick = (pick * pick) / 80;
        for (const char ch : lexicon[pick])
            corpus.push_back(static_cast<std::uint8_t>(ch));
        corpus.push_back(' ');
    }
    corpus.resize(size);
    // Keep every byte nonzero so dictionary keys are never zero.
    for (auto &byte : corpus) {
        if (byte == 0)
            byte = ' ';
    }
    return corpus;
}

} // namespace

Workload
buildCompress(const WorkloadParams &params)
{
    const std::int64_t inputLen =
        8192 * static_cast<std::int64_t>(params.scale);
    ProgramBuilder b("compress");

    // s0 = pos, s1 = input base, s2 = ht keys base, s3 = ht codes base,
    // s4 = output base, s5 = w (current prefix code), s6 = next free code,
    // s7 = table mask, s8 = emit count, s9 = input length.
    Label outer = b.newLabel();
    Label loop = b.newLabel();
    Label probe = b.newLabel();
    Label hit = b.newLabel();
    Label insert = b.newLabel();
    Label emitw = b.newLabel();
    Label next = b.newLabel();

    // One-time counters.
    b.li(s6, 256);
    b.li(s8, 0);

    b.bind(outer);
    b.li(s1, inputBase);
    b.li(s2, htKeysBase);
    b.li(s3, htCodesBase);
    b.li(s4, outBase);
    b.li(s7, tableMask);
    b.li(s9, inputLen);
    b.lbu(s5, s1, 0);            // w = input[0]
    b.li(s0, 1);                 // pos = 1

    b.bind(loop);
    b.add(t0, s0, s1);
    b.lbu(t1, t0, 0);            // c = input[pos]
    b.slli(t2, s5, 9);
    b.or_(t2, t2, t1);           // key = (w << 9) | c
    b.li(t3, 0x9e3779b1);
    b.mul(t4, t2, t3);
    b.srli(t4, t4, 16);
    b.and_(t4, t4, s7);          // h = hash(key)

    b.bind(probe);
    b.slli(t5, t4, 3);
    b.add(t6, t5, s2);
    b.ld(t7, t6, 0);             // k = htKeys[h]
    b.beq(t7, t2, hit);
    b.beq(t7, zero, insert);
    b.addi(t4, t4, 1);
    b.and_(t4, t4, s7);
    b.j(probe);

    b.bind(hit);
    b.add(t8, t5, s3);
    b.ld(s5, t8, 0);             // w = htCodes[h]
    b.j(next);

    b.bind(insert);
    b.li(a3, tableCap);
    b.bge(s6, a3, emitw);        // dictionary full: emit without insert
    b.st(t2, t6, 0);             // htKeys[h] = key
    b.add(t8, t5, s3);
    b.st(s6, t8, 0);             // htCodes[h] = nextCode
    b.addi(s6, s6, 1);

    b.bind(emitw);
    b.slli(a0, s8, 3);
    b.add(a0, a0, s4);
    b.st(s5, a0, 0);             // out[emitCount] = w
    b.addi(s8, s8, 1);
    b.mv(s5, t1);                // w = c

    b.bind(next);
    b.addi(s0, s0, 1);
    b.blt(s0, s9, loop);
    // End of input: emit the final prefix, restart the pass.
    b.slli(a0, s8, 3);
    b.add(a0, a0, s4);
    b.st(s5, a0, 0);
    b.addi(s8, s8, 1);
    b.j(outer);

    Program program = b.build();

    Memory mem;
    const auto corpus =
        makeCorpus(static_cast<std::size_t>(inputLen), params.seed);
    mem.writeBlock(inputBase, corpus.data(), corpus.size());

    return Workload{"compress", std::move(program), std::move(mem)};
}

} // namespace vpsim
