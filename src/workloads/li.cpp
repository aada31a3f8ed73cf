/**
 * @file
 * li mini-benchmark: cons-cell list processing, mirroring SPEC95's li
 * (xlisp interpreter).
 *
 * A heap of cons cells (car, cdr pairs) is threaded into lists whose cells
 * are deliberately shuffled in memory, so cdr-chasing loads return
 * non-stride pointers. The driver folds, maps and reverses lists and uses
 * a recursive (call/ret, memory-stack) sum, giving the trace interpreter-
 * style pointer chasing, deep call chains and moderate predictability.
 */

#include "workloads/workload.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "workloads/regs.hpp"
#include "vm/program_builder.hpp"

namespace vpsim
{

namespace
{

using namespace regs;

constexpr Addr heapBase = 0x600000;
constexpr Addr stackBase = 0x680000;   // grows downward


constexpr std::int64_t cellBytes = 16; // car (8) + cdr (8)

} // namespace

Workload
buildLi(const WorkloadParams &params)
{
    // The recursive sum descends the whole list; the cell count is
    // clamped so the memory stack never reaches down into the heap.
    const std::int64_t numCells = std::min<std::int64_t>(
        96 * static_cast<std::int64_t>(params.scale), 4096);
    ProgramBuilder b("li");

    // s0 = list head, s1 = heap base, s2 = iteration counter,
    // s3 = fold accumulator, s5 = scratch across calls, s9 = epoch.
    Label top = b.newLabel();
    Label iterate = b.newLabel();
    Label foldFn = b.newLabel();
    Label foldLoop = b.newLabel();
    Label foldDone = b.newLabel();
    Label mapFn = b.newLabel();
    Label mapLoop = b.newLabel();
    Label mapDone = b.newLabel();
    Label revFn = b.newLabel();
    Label revLoop = b.newLabel();
    Label revDone = b.newLabel();
    Label sumFn = b.newLabel();
    Label sumRec = b.newLabel();
    Label sumBase = b.newLabel();
    Label lenFn = b.newLabel();
    Label lenLoop = b.newLabel();
    Label lenDone = b.newLabel();

    b.li(s9, 0);

    b.bind(top);
    b.li(s1, heapBase);
    b.li(sp, stackBase);
    b.li(s0, heapBase);          // head = first cell (pre-linked image)
    b.li(s2, 0);
    b.addi(s9, s9, 1);

    b.bind(iterate);
    // sum = fold(head)
    b.mv(a0, s0);
    b.call(foldFn);
    b.mv(s3, a0);
    // map: car += (sum & 7) + 1
    b.andi(a1, s3, 7);
    b.addi(a1, a1, 1);
    b.mv(a0, s0);
    b.call(mapFn);
    // reverse the list in place
    b.mv(a0, s0);
    b.call(revFn);
    b.mv(s0, a0);
    // recursive sum (exercises call depth and the memory stack)
    b.mv(a0, s0);
    b.call(sumFn);
    b.add(s3, s3, a0);
    // length (cheap sanity pass)
    b.mv(a0, s0);
    b.call(lenFn);
    b.add(s3, s3, a0);

    b.addi(s2, s2, 1);
    b.li(t0, 24);
    b.blt(s2, t0, iterate);
    b.j(top);

    // --- fold: a0 = list -> a0 = sum of cars (iterative) ---
    b.bind(foldFn);
    b.li(t0, 0);
    b.bind(foldLoop);
    b.beq(a0, zero, foldDone);
    b.ld(t1, a0, 0);             // car
    b.add(t0, t0, t1);
    b.ld(a0, a0, 8);             // cdr
    b.j(foldLoop);
    b.bind(foldDone);
    b.mv(a0, t0);
    b.ret();

    // --- map: a0 = list, a1 = delta; car += delta ---
    b.bind(mapFn);
    b.bind(mapLoop);
    b.beq(a0, zero, mapDone);
    b.ld(t1, a0, 0);
    b.add(t1, t1, a1);
    b.st(t1, a0, 0);
    b.ld(a0, a0, 8);
    b.j(mapLoop);
    b.bind(mapDone);
    b.ret();

    // --- reverse in place: a0 = list -> a0 = new head ---
    b.bind(revFn);
    b.li(t0, 0);                 // prev
    b.bind(revLoop);
    b.beq(a0, zero, revDone);
    b.ld(t1, a0, 8);             // next
    b.st(t0, a0, 8);             // cdr = prev
    b.mv(t0, a0);
    b.mv(a0, t1);
    b.j(revLoop);
    b.bind(revDone);
    b.mv(a0, t0);
    b.ret();

    // --- recursive sum: a0 = list -> a0 = sum (uses the memory stack) ---
    b.bind(sumFn);
    b.bind(sumRec);
    b.beq(a0, zero, sumBase);
    b.addi(sp, sp, -16);
    b.st(ra, sp, 0);
    b.ld(t2, a0, 0);             // car
    b.st(t2, sp, 8);
    b.ld(a0, a0, 8);             // cdr
    b.call(sumRec);
    b.ld(t2, sp, 8);
    b.add(a0, a0, t2);
    b.ld(ra, sp, 0);
    b.addi(sp, sp, 16);
    b.ret();
    b.bind(sumBase);
    b.li(a0, 0);
    b.ret();

    // --- length: a0 = list -> a0 = count ---
    b.bind(lenFn);
    b.li(t0, 0);
    b.bind(lenLoop);
    b.beq(a0, zero, lenDone);
    b.addi(t0, t0, 1);
    b.ld(a0, a0, 8);
    b.j(lenLoop);
    b.bind(lenDone);
    b.mv(a0, t0);
    b.ret();

    Program program = b.build();

    // Heap image: cons cells are laid out mostly in allocation order (a
    // sequential free list, as in the real xlisp), so most cdr pointers
    // stride by the cell size; a handful of transpositions model cells
    // recycled after garbage collection, breaking the stride now and
    // then.
    Memory mem;
    Rng rng(0x11511151 ^ params.seed);
    std::vector<std::int64_t> chain;
    for (std::int64_t i = 0; i < numCells; ++i)
        chain.push_back(i);
    for (int swaps = 0; swaps < 6; ++swaps) {
        const auto span = static_cast<std::uint64_t>(numCells - 1);
        const std::size_t a = 1 + rng.nextBelow(span);
        const std::size_t b_idx = 1 + rng.nextBelow(span);
        std::swap(chain[a], chain[b_idx]);
    }
    for (std::size_t i = 0; i < chain.size(); ++i) {
        const Addr cell =
            heapBase + static_cast<Addr>(chain[i] * cellBytes);
        const Value car = 10 + (rng.nextBelow(90));
        const Value cdr = i + 1 < chain.size()
            ? heapBase + static_cast<Addr>(chain[i + 1] * cellBytes)
            : 0;
        mem.write64(cell, car);
        mem.write64(cell + 8, cdr);
    }

    return Workload{"li", std::move(program), std::move(mem)};
}

} // namespace vpsim
