/**
 * @file
 * go mini-benchmark: positional board evaluation, mirroring SPEC95's go.
 *
 * The program repeatedly scans a 19x19 board (with a sentinel border),
 * scores every empty point from its four neighbours and a positional
 * weight table, plays the best-scoring move, and occasionally captures
 * (clears) surrounded stones. Scores are data dependent and the
 * comparison branches are hard to predict, which mirrors why the real go
 * is the most branch-hostile, least value-predictable SPEC program.
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

constexpr Addr boardBase = 0x500000;
constexpr Addr weightBase = 0x510000;

constexpr std::int64_t dim = 21;              // 19x19 plus border
constexpr std::int64_t cells = dim * dim;

constexpr std::uint8_t empty = 0;
constexpr std::uint8_t border = 3;

/** Initial board: border ring, sparse deterministic stones. */
std::vector<std::uint8_t>
makeBoard(std::uint64_t seed)
{
    Rng rng(0x60606060 ^ seed);
    std::vector<std::uint8_t> board(cells, empty);
    for (std::int64_t i = 0; i < dim; ++i) {
        board[static_cast<std::size_t>(i)] = border;
        board[static_cast<std::size_t>((dim - 1) * dim + i)] = border;
        board[static_cast<std::size_t>(i * dim)] = border;
        board[static_cast<std::size_t>(i * dim + dim - 1)] = border;
    }
    for (std::int64_t r = 1; r < dim - 1; ++r) {
        for (std::int64_t c = 1; c < dim - 1; ++c) {
            if (rng.nextChance(1, 6))
                board[static_cast<std::size_t>(r * dim + c)] =
                    static_cast<std::uint8_t>(1 + rng.nextBelow(2));
        }
    }
    return board;
}

/** Positional weights favouring the centre. */
std::vector<Value>
makeWeights()
{
    std::vector<Value> weights(cells, 0);
    for (std::int64_t r = 0; r < dim; ++r) {
        for (std::int64_t c = 0; c < dim; ++c) {
            const std::int64_t dr = r < dim / 2 ? r : dim - 1 - r;
            const std::int64_t dc = c < dim / 2 ? c : dim - 1 - c;
            weights[static_cast<std::size_t>(r * dim + c)] =
                static_cast<Value>(dr < dc ? dr : dc);
        }
    }
    return weights;
}

} // namespace

Workload
buildGo(const WorkloadParams &params)
{
    const std::int64_t movesPerGame =
        160 * static_cast<std::int64_t>(params.scale);
    ProgramBuilder b("go");

    // s0 = cell index, s1 = board base, s2 = weight base,
    // s3 = best score, s4 = best index, s5 = colour to move (1/2),
    // s6 = move count, s7 = scan score accumulator, s8 = games played.
    Label newGame = b.newLabel();
    Label scanStart = b.newLabel();
    Label scanLoop = b.newLabel();
    Label scoreIt = b.newLabel();
    Label notMine1 = b.newLabel();
    Label scored1 = b.newLabel();
    Label notMine2 = b.newLabel();
    Label scored2 = b.newLabel();
    Label notMine3 = b.newLabel();
    Label scored3 = b.newLabel();
    Label notMine4 = b.newLabel();
    Label scored4 = b.newLabel();
    Label notBest = b.newLabel();
    Label nextCell = b.newLabel();
    Label scanDone = b.newLabel();
    Label play = b.newLabel();
    Label captureScan = b.newLabel();
    Label capLoop = b.newLabel();
    Label capNext = b.newLabel();
    Label capClear = b.newLabel();
    Label capDone = b.newLabel();
    Label resetBoard = b.newLabel();
    Label resetLoop = b.newLabel();

    b.li(s8, 0);

    b.bind(newGame);
    b.li(s5, 1);                 // black moves first
    b.li(s6, 0);

    b.bind(scanStart);
    b.li(s1, boardBase);
    b.li(s2, weightBase);
    b.li(s3, -1);                // best score
    b.li(s4, 0);                 // best index
    b.li(s7, 0);
    b.li(s0, dim + 1);           // first interior cell

    b.bind(scanLoop);
    b.add(t0, s0, s1);
    b.lbu(t1, t0, 0);            // cell
    b.bne(t1, zero, nextCell);   // only score empty points

    b.bind(scoreIt);
    // Score = weights[idx] + neighbour affinity.
    b.slli(t2, s0, 3);
    b.add(t2, t2, s2);
    b.ld(t3, t2, 0);             // score = weight[idx]
    // North neighbour.
    b.lbu(t4, t0, -dim);
    b.bne(t4, s5, notMine1);
    b.addi(t3, t3, 3);           // friendly: +3
    b.j(scored1);
    b.bind(notMine1);
    b.bne(t4, zero, scored1);
    b.addi(t3, t3, 1);           // empty: +1
    b.bind(scored1);
    // South neighbour.
    b.lbu(t4, t0, dim);
    b.bne(t4, s5, notMine2);
    b.addi(t3, t3, 3);
    b.j(scored2);
    b.bind(notMine2);
    b.bne(t4, zero, scored2);
    b.addi(t3, t3, 1);
    b.bind(scored2);
    // West neighbour.
    b.lbu(t4, t0, -1);
    b.bne(t4, s5, notMine3);
    b.addi(t3, t3, 3);
    b.j(scored3);
    b.bind(notMine3);
    b.bne(t4, zero, scored3);
    b.addi(t3, t3, 1);
    b.bind(scored3);
    // East neighbour.
    b.lbu(t4, t0, 1);
    b.bne(t4, s5, notMine4);
    b.addi(t3, t3, 3);
    b.j(scored4);
    b.bind(notMine4);
    b.bne(t4, zero, scored4);
    b.addi(t3, t3, 1);
    b.bind(scored4);
    b.add(s7, s7, t3);           // accumulate scan score
    b.bge(s3, t3, notBest);      // keep the best move
    b.mv(s3, t3);
    b.mv(s4, s0);
    b.bind(notBest);

    b.bind(nextCell);
    b.addi(s0, s0, 1);
    b.li(t5, cells - dim - 1);
    b.blt(s0, t5, scanLoop);
    b.j(scanDone);

    b.bind(scanDone);
    // Play the best move (if any empty point was found).
    b.blt(s3, zero, resetBoard);

    b.bind(play);
    b.add(t0, s4, s1);
    b.sb(s5, t0, 0);             // place stone
    b.xori(s5, s5, 3);           // switch colour 1<->2
    b.addi(s6, s6, 1);
    // Every 8th move, run a capture sweep.
    b.andi(t1, s6, 7);
    b.bne(t1, zero, capDone);

    b.bind(captureScan);
    b.li(s0, dim + 1);
    b.bind(capLoop);
    b.add(t0, s0, s1);
    b.lbu(t1, t0, 0);
    b.beq(t1, zero, capNext);
    b.li(t8, 3);
    b.beq(t1, t8, capNext);      // skip border cells
    // A stone with no empty neighbour is "captured".
    b.lbu(t2, t0, -dim);
    b.beq(t2, zero, capNext);
    b.lbu(t2, t0, dim);
    b.beq(t2, zero, capNext);
    b.lbu(t2, t0, -1);
    b.beq(t2, zero, capNext);
    b.lbu(t2, t0, 1);
    b.beq(t2, zero, capNext);
    b.bind(capClear);
    b.sb(zero, t0, 0);
    b.bind(capNext);
    b.addi(s0, s0, 1);
    b.li(t5, cells - dim - 1);
    b.blt(s0, t5, capLoop);
    b.bind(capDone);

    b.li(t6, movesPerGame);
    b.blt(s6, t6, scanStart);

    // Game over: reset the board to the initial position and start again.
    b.bind(resetBoard);
    b.addi(s8, s8, 1);
    b.li(s0, 0);
    b.li(t7, boardBase + cells); // initial copy stored after the board
    b.bind(resetLoop);
    b.add(t0, s0, t7);
    b.lbu(t1, t0, 0);
    b.add(t2, s0, s1);
    b.sb(t1, t2, 0);
    b.addi(s0, s0, 1);
    b.li(t5, cells);
    b.blt(s0, t5, resetLoop);
    b.j(newGame);

    Program program = b.build();

    Memory mem;
    const auto board = makeBoard(params.seed);
    mem.writeBlock(boardBase, board.data(), board.size());
    // Pristine copy used by the reset loop.
    mem.writeBlock(boardBase + cells, board.data(), board.size());
    mem.writeWords(weightBase, makeWeights());

    return Workload{"go", std::move(program), std::move(mem)};
}

} // namespace vpsim
