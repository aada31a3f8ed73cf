/**
 * @file
 * ijpeg mini-benchmark: 8x8 integer block transform with quantization,
 * mirroring SPEC95's ijpeg (JPEG encoder).
 *
 * The program walks an image in 8x8 blocks; for each block it loads the
 * pixels, applies a butterfly-style integer transform to rows then
 * columns, quantizes by a per-coefficient divisor table and stores the
 * coefficients. Loop indices and addresses stride nicely; the pixel data
 * path (sums, differences, divides) is data dependent, matching ijpeg's
 * middling value predictability in the paper.
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

constexpr Addr imageBase = 0x700000;
constexpr Addr workBase = 0x710000;    // 64-word block workspace
constexpr Addr quantBase = 0x720000;   // 64 divisors
constexpr Addr coefBase = 0x730000;    // output coefficients



/** Smooth-ish deterministic test image. */
std::vector<std::uint8_t>
makeImage(std::int64_t imageDim, std::uint64_t seed)
{
    Rng rng(0x1Ca6e5 ^ seed);
    std::vector<std::uint8_t> image(
        static_cast<std::size_t>(imageDim * imageDim));
    for (std::int64_t y = 0; y < imageDim; ++y) {
        for (std::int64_t x = 0; x < imageDim; ++x) {
            const std::int64_t base =
                128 + ((x * 3 + y * 5) % 64) - 32;
            const std::int64_t noise =
                static_cast<std::int64_t>(rng.nextBelow(17)) - 8;
            std::int64_t v = base + noise;
            if (v < 0)
                v = 0;
            if (v > 255)
                v = 255;
            image[static_cast<std::size_t>(y * imageDim + x)] =
                static_cast<std::uint8_t>(v);
        }
    }
    return image;
}

/** JPEG-flavoured quantization divisors (never zero). */
std::vector<Value>
makeQuant()
{
    std::vector<Value> quant(64);
    for (std::int64_t i = 0; i < 64; ++i) {
        const std::int64_t row = i / 8;
        const std::int64_t col = i % 8;
        quant[static_cast<std::size_t>(i)] =
            static_cast<Value>(2 + row + col + ((row * col) / 3));
    }
    return quant;
}

} // namespace

Workload
buildIjpeg(const WorkloadParams &params)
{
    // The row stride is baked into the program as a shift, so the image
    // dimension scales in powers of two.
    unsigned dim_shift = 6; // 64x64 at scale 1
    for (unsigned s = params.scale; s > 1; s /= 2)
        ++dim_shift;
    const std::int64_t imageDim = std::int64_t{1} << dim_shift;
    const std::int64_t blocksPerSide = imageDim / 8;
    ProgramBuilder b("ijpeg");

    // s0 = block x, s1 = block y, s2 = frame counter, s3 = energy
    // accumulator, s4 = image base, s5 = work base, s6 = quant base,
    // s7 = coef base, s8 = coef write cursor.
    Label frame = b.newLabel();
    Label blockLoop = b.newLabel();
    Label loadLoop = b.newLabel();
    Label rowLoop = b.newLabel();
    Label colLoop = b.newLabel();
    Label quantLoop = b.newLabel();
    Label nextBlock = b.newLabel();

    b.li(s2, 0);
    b.li(s8, 0);

    b.bind(frame);
    b.addi(s2, s2, 1);
    b.li(s3, 0);
    b.li(s1, 0);                 // block y
    b.li(s0, 0);                 // block x

    b.bind(blockLoop);
    b.li(s4, imageBase);
    b.li(s5, workBase);
    b.li(s6, quantBase);
    b.li(s7, coefBase);

    // --- load 8x8 block into the workspace (row major, 64 words) ---
    // t0 = i (0..63)
    b.li(t0, 0);
    b.bind(loadLoop);
    b.srli(t1, t0, 3);           // local row
    b.andi(t2, t0, 7);           // local col
    b.slli(t3, s1, 3);           // pixel row = by*8 + lrow
    b.add(t3, t3, t1);
    b.slli(t4, s0, 3);           // pixel col = bx*8 + lcol
    b.add(t4, t4, t2);
    b.slli(t5, t3, dim_shift);   // row * imageDim
    b.add(t5, t5, t4);
    b.add(t5, t5, s4);
    b.lbu(t6, t5, 0);            // pixel
    b.addi(t6, t6, -128);        // level shift
    b.slli(t7, t0, 3);
    b.add(t7, t7, s5);
    b.st(t6, t7, 0);             // work[i] = pixel - 128
    b.addi(t0, t0, 1);
    b.li(t8, 64);
    b.blt(t0, t8, loadLoop);

    // --- row transform: 4 butterfly pairs per row ---
    // t0 = row index
    b.li(t0, 0);
    b.bind(rowLoop);
    b.slli(t1, t0, 6);           // row * 8 words * 8 bytes
    b.add(t1, t1, s5);           // row base address
    // pairs (0,7) (1,6) (2,5) (3,4): a' = a+b, b' = (a-b)*k >> 3
    for (int pair = 0; pair < 4; ++pair) {
        const int lo = pair;
        const int hi = 7 - pair;
        b.ld(t2, t1, lo * 8);
        b.ld(t3, t1, hi * 8);
        b.add(t4, t2, t3);
        b.sub(t5, t2, t3);
        b.li(t6, 11 + pair * 4);
        b.mul(t5, t5, t6);
        b.srai(t5, t5, 3);
        b.st(t4, t1, lo * 8);
        b.st(t5, t1, hi * 8);
    }
    b.addi(t0, t0, 1);
    b.li(t8, 8);
    b.blt(t0, t8, rowLoop);

    // --- column transform ---
    b.li(t0, 0);
    b.bind(colLoop);
    b.slli(t1, t0, 3);           // column offset in bytes
    b.add(t1, t1, s5);
    for (int pair = 0; pair < 4; ++pair) {
        const int lo = pair;
        const int hi = 7 - pair;
        b.ld(t2, t1, lo * 64);
        b.ld(t3, t1, hi * 64);
        b.add(t4, t2, t3);
        b.sub(t5, t2, t3);
        b.li(t6, 13 + pair * 4);
        b.mul(t5, t5, t6);
        b.srai(t5, t5, 3);
        b.st(t4, t1, lo * 64);
        b.st(t5, t1, hi * 64);
    }
    b.addi(t0, t0, 1);
    b.li(t8, 8);
    b.blt(t0, t8, colLoop);

    // --- quantize and store coefficients ---
    b.li(t0, 0);
    b.bind(quantLoop);
    b.slli(t1, t0, 3);
    b.add(t2, t1, s5);
    b.ld(t3, t2, 0);             // coefficient
    b.add(t4, t1, s6);
    b.ld(t5, t4, 0);             // divisor
    b.div(t6, t3, t5);
    // energy += |q|
    b.srai(t7, t6, 63);
    b.xor_(t8, t6, t7);
    b.sub(t8, t8, t7);
    b.add(s3, s3, t8);
    // coef[cursor++] = q
    b.slli(a0, s8, 3);
    b.add(a0, a0, s7);
    b.st(t6, a0, 0);
    b.addi(s8, s8, 1);
    b.andi(s8, s8, 0xfff);       // wrap the output ring
    b.addi(t0, t0, 1);
    b.li(a1, 64);
    b.blt(t0, a1, quantLoop);

    b.bind(nextBlock);
    b.addi(s0, s0, 1);
    b.li(t8, blocksPerSide);
    b.blt(s0, t8, blockLoop);
    b.li(s0, 0);
    b.addi(s1, s1, 1);
    b.blt(s1, t8, blockLoop);
    b.j(frame);

    Program program = b.build();

    Memory mem;
    const auto image = makeImage(imageDim, params.seed);
    mem.writeBlock(imageBase, image.data(), image.size());
    mem.writeWords(quantBase, makeQuant());

    return Workload{"ijpeg", std::move(program), std::move(mem)};
}

} // namespace vpsim
