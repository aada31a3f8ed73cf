// Seeded-violation fixture for scripts/lint_project.py --self-test.
//
// This file is never compiled and never linted as part of the tree
// (the linter skips tests/); it exists so ctest `lint_project_selftest`
// can prove every rule actually fires. Each block below plants exactly
// the bug its rule exists to catch — if a linter refactor stops
// flagging one of them, the self-test fails.

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <unordered_map>

#include "common/io.hpp"
#include "trace/trace_v3.hpp"

namespace vpsim_lint_fixture
{

void
seededStatusDiscard(const std::vector<vpsim::TraceRecord> &records)
{
    // [status-discard] A write whose failure vanishes: the sweep would
    // publish numbers from a trace that never landed on disk.
    vpsim::writeTraceV3("/tmp/fixture.vptrace", records); // lint:expect status-discard

    // Consumed calls must NOT fire.
    const vpsim::Status kept =
        vpsim::writeTraceV3("/tmp/fixture2.vptrace", records);
    if (!kept.isOk())
        return;

    // Justified discard must NOT fire either.
    // Cleanup is best-effort; failure changes nothing.
    (void)vpsim::io::removeFile("/tmp/fixture.vptrace");
}

void
seededAmbiguousMembers()
{
    // [status-discard] flush() is ambiguous (std::ostream has one
    // too), but on an io::File receiver the dropped Status means a
    // torn file can go unnoticed.
    vpsim::io::File file;
    file.flush(); // lint:expect status-discard

    // The same member names on std types must NOT fire: the linter
    // resolves the receiver's declared type before flagging.
    std::ofstream out("/tmp/fixture.log");
    out.flush();
    std::atomic<bool> done{false};
    done.store(true, std::memory_order_release);
}

std::uint64_t
seededNondeterminism()
{
    // [sim-determinism] A wall-clock/libc-rand seed makes every run
    // differ; reproduced figures stop being reproducible.
    std::uint64_t seed = static_cast<std::uint64_t>(time(nullptr)); // lint:expect sim-determinism
    seed ^= static_cast<std::uint64_t>(rand()); // lint:expect sim-determinism
    return seed;
}

double
seededUnorderedOutput()
{
    // [unordered-iter] Unspecified visit order feeding an accumulated
    // double: FP addition is not associative, so the CSV cell depends
    // on the stdlib's hash layout.
    std::unordered_map<int, double> cells;
    double total = 0.0;
    for (const auto &entry : cells) // lint:expect unordered-iter
        total += entry.second;

    // Suppressed, justified iteration must NOT fire.
    // lint:allow unordered-iter — count is order-independent.
    for (const auto &entry : cells)
        total += 1.0 * (entry.first != 0);
    return total;
}

// Fixed FP class: a FUNCTION whose return type is an unordered map
// must not register its NAME as a container variable. The range-for
// below walks a same-named ORDERED vector and must stay quiet.
std::unordered_map<int, double> snapshotCells();

double
sumOrderedSnapshot(const std::vector<double> &snapshotCells)
{
    double total = 0.0;
    for (double cell : snapshotCells)
        total += cell;
    return total;
}

// Fixed FP class: the embedded quotes in a raw string used to pop the
// stripper's string state early, leaking the literal's text — here a
// phantom unordered_map declaration — into the scanned code, which
// then flagged the ordered loop below.
inline const char *
manifestTemplate()
{
    return R"json({"kind": "std::unordered_map<int, double> phantomCells;"})json";
}

double
sumOrderedCells(const std::vector<double> &phantomCells)
{
    double total = 0.0;
    for (double cell : phantomCells)
        total += cell;
    return total;
}

class SeededRawMutex
{
    // [raw-mutex] Invisible to the thread-safety analysis; GUARDED_BY
    // on members protected by this lock could never be checked.
    std::mutex rawMutex; // lint:expect raw-mutex
};

} // namespace vpsim_lint_fixture
