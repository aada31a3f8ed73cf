/**
 * @file
 * Bounded-memory streaming soak: generate a large synthetic trace
 * straight to the v3 block-framed format, stream it back through
 * StreamingTraceSource, and prove the whole round trip ran in bounded
 * memory.
 *
 * Neither direction ever materializes the trace: generation appends
 * fixed-size spans to a TraceV3Writer, and the read-back consumes
 * spans from the source's two decoded blocks (one served while its
 * read-ahead thread decodes the next; with the reader's frame buffer,
 * that is all the read-back holds). Both sides fold every record
 * field into an FNV-1a digest; the digests must match exactly, the
 * record count must match --insts, and the phase peak RSS (RssSampler)
 * must stay at or below --mem-budget. A 100M-instruction run (the CI
 * release job) is ~1.3 GB on disk yet must hold well under 256 MB
 * resident — the property the streaming pipeline exists to provide.
 *
 * Exit status 0 only when all three assertions hold.
 */

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/fnv1a.hpp"
#include "common/logging.hpp"
#include "common/options.hpp"
#include "common/resource_usage.hpp"
#include "isa/opcodes.hpp"
#include "trace/record.hpp"
#include "trace/streaming_source.hpp"
#include "trace/trace_v3.hpp"

namespace vpsim
{
namespace
{

/** xorshift64*: fast, deterministic, and seed-stable across platforms. */
struct SoakRng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 2685821657736338717ull;
    }
};

/**
 * Synthesize the record at position @p position: a loopy instruction
 * stream with realistic small PC deltas, loads/stores touching a
 * strided heap, occasional taken branches, and pseudo-random result
 * values (the hard case for the varint encoder).
 */
TraceRecord
synthesize(std::uint64_t position, SoakRng &rng)
{
    const std::uint64_t roll = rng.next();
    TraceRecord r;
    r.pc = 0x400000 + (position % 997) * instBytes;
    r.op = OpCode::Add;
    r.rd = static_cast<RegIndex>(1 + roll % 31);
    r.rs1 = static_cast<RegIndex>(1 + (roll >> 8) % 31);
    r.rs2 = static_cast<RegIndex>(1 + (roll >> 16) % 31);
    r.result = roll;
    r.nextPc = r.fallThrough();
    switch (roll % 8) {
      case 0:
        r.op = OpCode::Ld;
        break;
      case 1:
        r.op = OpCode::St;
        r.rd = invalidReg;
        break;
      case 2:
        r.op = OpCode::Beq;
        r.rd = invalidReg;
        r.taken = (roll & 0x100) != 0;
        if (r.taken)
            r.nextPc = r.pc - 64 * instBytes;
        break;
      default:
        break;
    }
    return r;
}

/**
 * Fold the record at position @p position, word by word, into the
 * running FNV-1a digest.
 */
std::uint64_t
digestRecord(std::uint64_t hash, std::uint64_t position,
             const TraceRecord &r)
{
    const auto mix = [&hash](std::uint64_t value) {
        hash ^= value;
        hash *= fnv1aPrime;
    };
    mix(position);
    mix(r.pc);
    mix(r.nextPc);
    mix(r.result);
    mix(static_cast<std::uint64_t>(r.op));
    mix(r.rd);
    mix(r.rs1);
    mix(r.rs2);
    mix(r.taken ? 1 : 0);
    return hash;
}

} // namespace
} // namespace vpsim

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    options.declare("insts", "10000000",
                    "synthetic instructions to stream through the "
                    "round trip");
    options.declare("mem-budget", "256",
                    "peak-RSS ceiling in MB asserted on both phases "
                    "(0 = measure only, assert nothing)");
    options.declare("block-records", "65536",
                    "records per v3 block in the generated file");
    options.declare("trace-file", "",
                    "write the synthetic trace here and keep it "
                    "(default: temporary, removed on exit)");
    options.declare("seed", "42", "synthetic-stream seed");
    options.parse(argc, argv,
                  "Streaming soak: bounded-memory v3 round trip with a "
                  "peak-RSS assertion (docs/TRACE_FORMAT.md)");

    const auto insts =
        static_cast<std::uint64_t>(options.getInt("insts"));
    fatalIf(insts == 0, "--insts must be positive");
    const std::uint64_t budget_bytes =
        static_cast<std::uint64_t>(options.getInt("mem-budget")) << 20;
    const auto block_records =
        static_cast<std::uint32_t>(options.getInt("block-records"));

    std::string path = options.getString("trace-file");
    const bool keep_file = !path.empty();
    if (path.empty()) {
        const char *tmp = std::getenv("TMPDIR");
        path = std::string(tmp ? tmp : "/tmp") + "/vpsim-stream-soak-" +
               std::to_string(::getpid()) + ".vptrace";
    }

    RssSampler sampler;
    std::fprintf(stderr,
                 "streaming soak: %" PRIu64 " insts, %u records/block, "
                 "budget %" PRIu64 " MB\n",
                 insts, block_records, budget_bytes >> 20);

    // Phase 1: generate straight to disk, one span at a time.
    sampler.beginPhase();
    Stopwatch write_watch;
    std::uint64_t write_digest = fnv1aBasis;
    {
        SoakRng rng{options.getInt("seed") == 0
                    ? 0x9e3779b97f4a7c15ull
                    : static_cast<std::uint64_t>(
                          options.getInt("seed"))};
        TraceV3Writer writer;
        fatalIf(!writer.open(path, block_records).isOk(),
                "cannot open " + path + " for the synthetic trace");
        std::vector<TraceRecord> span;
        constexpr std::size_t spanRecords = 8192;
        span.reserve(spanRecords);
        for (std::uint64_t position = 0; position < insts;) {
            span.clear();
            for (; span.size() < spanRecords && position < insts;
                 ++position) {
                span.push_back(synthesize(position, rng));
                write_digest =
                    digestRecord(write_digest, position, span.back());
            }
            fatalIf(!writer
                         .append(TraceSpan(span.data(), span.size()))
                         .isOk(),
                    "append failed writing " + path);
        }
        fatalIf(!writer.finish().isOk(), "finish failed on " + path);
    }
    const double write_seconds = write_watch.seconds();
    const std::size_t write_peak = sampler.peakBytes();

    // Phase 2: stream it back block by block and redo the
    // digest from the delivered spans.
    sampler.beginPhase();
    Stopwatch read_watch;
    StreamingTraceSource source;
    fatalIf(!source.open(path).isOk(),
            "cannot stream back " + path);
    std::uint64_t read_digest = fnv1aBasis;
    std::uint64_t read_records = 0;
    TraceSpan block;
    while (source.nextBlock(block, TraceSpan::noLimit)) {
        for (const TraceRecord &r : block)
            read_digest = digestRecord(read_digest, read_records++, r);
    }
    fatalIf(!source.status().isOk(),
            "stream ended with error: " + source.status().message());
    const double read_seconds = read_watch.seconds();
    const std::size_t read_peak = sampler.peakBytes();

    std::fprintf(stderr,
                 "  write: %7.2f s (%6.1f MiB peak)   read: %7.2f s "
                 "(%6.1f MiB peak)\n",
                 write_seconds,
                 static_cast<double>(write_peak) / (1024.0 * 1024.0),
                 read_seconds,
                 static_cast<double>(read_peak) / (1024.0 * 1024.0));

    if (!keep_file)
        std::remove(path.c_str());

    fatalIf(read_records != insts,
            "streamed " + std::to_string(read_records) + " of " +
                std::to_string(insts) + " records");
    fatalIf(read_digest != write_digest,
            "record digest diverged across the v3 round trip");
    if (budget_bytes != 0) {
        fatalIf(write_peak > budget_bytes,
                "write phase peak RSS " + std::to_string(write_peak) +
                    " exceeds the " +
                    std::to_string(budget_bytes >> 20) +
                    " MB budget");
        fatalIf(read_peak > budget_bytes,
                "streaming phase peak RSS " + std::to_string(read_peak) +
                    " exceeds the " +
                    std::to_string(budget_bytes >> 20) +
                    " MB budget");
    }
    std::fprintf(stderr,
                 "  OK: %" PRIu64 " records round-tripped, digests "
                 "match, RSS under budget\n",
                 read_records);
    return 0;
}
