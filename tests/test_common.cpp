/**
 * @file
 * Unit tests for the common infrastructure: saturating counters,
 * histograms, RNG, stats groups, table printing, and option parsing.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.hpp"
#include "common/fnv1a.hpp"
#include "common/histogram.hpp"
#include "common/io.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/sat_counter.hpp"
#include "common/table_printer.hpp"

namespace vpsim
{
namespace
{

TEST(SatCounter, StartsNotSet)
{
    SatCounter counter(2);
    EXPECT_FALSE(counter.isSet());
    EXPECT_EQ(counter.value(), 0u);
}

TEST(SatCounter, SetsAtUpperHalf)
{
    SatCounter counter(2);
    counter.increment();
    EXPECT_FALSE(counter.isSet()) << "value 1 of 0..3 is lower half";
    counter.increment();
    EXPECT_TRUE(counter.isSet());
    counter.increment();
    EXPECT_TRUE(counter.isSaturated());
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter counter(2);
    for (int i = 0; i < 10; ++i)
        counter.increment();
    EXPECT_EQ(counter.value(), 3u);
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter counter(2);
    counter.decrement();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(SatCounter, HysteresisAcrossThreshold)
{
    SatCounter counter(2, 3);
    counter.decrement();
    EXPECT_TRUE(counter.isSet()) << "one miss from saturated stays set";
    counter.decrement();
    EXPECT_FALSE(counter.isSet());
}

TEST(SatCounter, WiderCountersWork)
{
    SatCounter counter(4);
    for (int i = 0; i < 7; ++i)
        counter.increment();
    EXPECT_FALSE(counter.isSet());
    counter.increment();
    EXPECT_TRUE(counter.isSet());
    EXPECT_EQ(counter.max(), 15u);
}

TEST(SatCounter, InitialValueClamped)
{
    SatCounter counter(2, 100);
    EXPECT_EQ(counter.value(), 3u);
}

TEST(SatCounter, ResetClears)
{
    SatCounter counter(2, 3);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_FALSE(counter.isSet());
}

class SatCounterWidths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SatCounterWidths, ThresholdIsHalfRange)
{
    const unsigned bits = GetParam();
    SatCounter counter(bits);
    const unsigned threshold = 1u << (bits - 1);
    for (unsigned i = 0; i < threshold - 1; ++i)
        counter.increment();
    EXPECT_FALSE(counter.isSet());
    counter.increment();
    EXPECT_TRUE(counter.isSet());
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidths,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(Histogram, BucketsSamples)
{
    Histogram hist({1, 2, 3});
    hist.add(0);
    hist.add(1);
    hist.add(2);
    hist.add(3);
    hist.add(100);
    EXPECT_EQ(hist.bucketCount(0), 2u) << "0 and 1 share bucket <=1";
    EXPECT_EQ(hist.bucketCount(1), 1u);
    EXPECT_EQ(hist.bucketCount(2), 1u);
    EXPECT_EQ(hist.bucketCount(3), 1u) << "overflow bucket";
    EXPECT_EQ(hist.totalSamples(), 5u);
}

TEST(Histogram, Fractions)
{
    Histogram hist({4});
    for (int i = 0; i < 3; ++i)
        hist.add(1);
    hist.add(10);
    EXPECT_DOUBLE_EQ(hist.bucketFraction(0), 0.75);
    EXPECT_DOUBLE_EQ(hist.bucketFraction(1), 0.25);
}

TEST(Histogram, MeanTracksSamples)
{
    Histogram hist({100});
    hist.add(10);
    hist.add(20);
    hist.add(60);
    EXPECT_DOUBLE_EQ(hist.mean(), 30.0);
}

TEST(Histogram, WeightedSamples)
{
    Histogram hist({5});
    hist.add(2, 10);
    EXPECT_EQ(hist.bucketCount(0), 10u);
    EXPECT_DOUBLE_EQ(hist.mean(), 2.0);
}

TEST(Histogram, Labels)
{
    Histogram hist({1, 3, 7});
    EXPECT_EQ(hist.bucketLabel(0), "0-1");
    EXPECT_EQ(hist.bucketLabel(1), "2-3");
    EXPECT_EQ(hist.bucketLabel(2), "4-7");
    EXPECT_EQ(hist.bucketLabel(3), ">=8");
}

TEST(Histogram, MergeCombines)
{
    Histogram a({4});
    Histogram b({4});
    a.add(1);
    b.add(10);
    a.merge(b);
    EXPECT_EQ(a.totalSamples(), 2u);
    EXPECT_EQ(a.bucketCount(1), 1u);
}

TEST(Histogram, EmptyMeanIsZero)
{
    Histogram hist({4});
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
    EXPECT_DOUBLE_EQ(hist.bucketFraction(0), 0.0);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceIsRoughlyCalibrated)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.nextChance(1, 4) ? 1 : 0;
    EXPECT_GT(hits, 2100);
    EXPECT_LT(hits, 2900);
}

TEST(Fnv1a, MatchesTheStandardTestVectors)
{
    // Published FNV-1a 64-bit vectors: the empty string hashes to the
    // offset basis itself.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, FoldHashesTheLittleEndianBytesOfAnInteger)
{
    const std::string bytes("\x34\x12\0\0\0\0\0\0", 8);
    EXPECT_EQ(fnv1aFold(fnv1aBasis, 0x1234), fnv1a(bytes));
    EXPECT_EQ(fnv1aFold(fnv1a("x"), 7), fnv1a(std::string("x\x07") +
                                               std::string(7, '\0')));
}

TEST(TablePrinterTest, RendersAlignedTable)
{
    TablePrinter table("Figure X", {"bench", "a", "b"});
    table.addRow({"go", "1.0", "2.0"});
    table.addSeparator();
    table.addRow({"avg", "1.5", "2.5"});
    const std::string out = table.render();
    EXPECT_NE(out.find("Figure X"), std::string::npos);
    EXPECT_NE(out.find("go"), std::string::npos);
    EXPECT_NE(out.find("avg"), std::string::npos);
}

TEST(TablePrinterTest, CellFormatters)
{
    EXPECT_EQ(TablePrinter::percentCell(0.335), "33.5%");
    EXPECT_EQ(TablePrinter::percentCell(0.335, 0), "34%");
    EXPECT_EQ(TablePrinter::numberCell(3.14159, 2), "3.14");
}

TEST(OptionsTest, DefaultsApply)
{
    Options opts;
    opts.declare("insts", "1000", "instruction budget");
    const char *argv[] = {"prog"};
    opts.parse(1, argv, "test");
    EXPECT_EQ(opts.getInt("insts"), 1000);
}

TEST(OptionsTest, ParsesBothForms)
{
    Options opts;
    opts.declare("a", "0", "");
    opts.declare("b", "0", "");
    const char *argv[] = {"prog", "--a", "5", "--b=7"};
    opts.parse(4, argv, "test");
    EXPECT_EQ(opts.getInt("a"), 5);
    EXPECT_EQ(opts.getInt("b"), 7);
}

TEST(OptionsTest, ListsAndBools)
{
    Options opts;
    opts.declare("benchmarks", "go,gcc", "");
    opts.declare("verbose", "false", "");
    const char *argv[] = {"prog", "--verbose", "true"};
    opts.parse(3, argv, "test");
    const auto list = opts.getList("benchmarks");
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[0], "go");
    EXPECT_TRUE(opts.getBool("verbose"));
}

TEST(OptionsTest, UnknownOptionDies)
{
    Options opts;
    opts.declare("a", "0", "");
    const char *argv[] = {"prog", "--bogus", "1"};
    EXPECT_EXIT(opts.parse(3, argv, "test"),
                ::testing::ExitedWithCode(1), "unknown option");
}

TEST(OptionsTest, BadIntegerDies)
{
    Options opts;
    opts.declare("n", "0", "");
    const char *argv[] = {"prog", "--n", "thirty"};
    opts.parse(3, argv, "test");
    EXPECT_EXIT(opts.getInt("n"), ::testing::ExitedWithCode(1),
                "expects an integer");
}

TEST(OptionsTest, FingerprintIsCanonicalAndFiltered)
{
    Options a;
    a.declare("insts", "1000", "");
    a.declare("jobs", "0", "");
    const char *argv_a[] = {"prog", "--jobs", "8"};
    a.parse(3, argv_a, "test");

    Options b;
    b.declare("jobs", "0", "");
    b.declare("insts", "1000", "");
    const char *argv_b[] = {"prog", "--insts=1000", "--jobs", "2"};
    b.parse(4, argv_b, "test");

    // Declaration order and explicit-vs-default must not matter, and
    // excluded (execution-only) options must not change the print.
    EXPECT_EQ(a.fingerprint({"jobs"}), b.fingerprint({"jobs"}));
    EXPECT_NE(a.fingerprint(), b.fingerprint())
        << "--jobs differs when not excluded";

    Options c;
    c.declare("insts", "1000", "");
    c.declare("jobs", "0", "");
    const char *argv_c[] = {"prog", "--insts", "2000"};
    c.parse(3, argv_c, "test");
    EXPECT_NE(a.fingerprint({"jobs"}), c.fingerprint({"jobs"}))
        << "a result-relevant option must change the fingerprint";
}

TEST(StatusTest, CarriesCodeAndMessage)
{
    EXPECT_EQ(Status::ok().code(), StatusCode::kOk);
    EXPECT_TRUE(Status::ok().isOk());
    const Status io = Status::error("disk trouble");
    EXPECT_EQ(io.code(), StatusCode::kIo)
        << "untyped errors default to the transient I/O class";
    const Status corrupt =
        Status::error(StatusCode::kCorrupt, "bad checksum");
    EXPECT_FALSE(corrupt.isOk());
    EXPECT_EQ(corrupt.code(), StatusCode::kCorrupt);
    EXPECT_EQ(corrupt.message(), "bad checksum");
    EXPECT_STREQ(statusCodeName(StatusCode::kCorrupt), "corrupt");
    EXPECT_STREQ(statusCodeName(StatusCode::kCanceled), "canceled");
}

TEST(Crc32Test, MatchesTheStandardCheckValue)
{
    // The classic CRC-32 check: crc32("123456789") == 0xCBF43926.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
}

TEST(Crc32Test, IncrementalEqualsOneShot)
{
    const std::string data = "the quick brown fox jumps over";
    Crc32 incremental;
    incremental.update(data.data(), 10);
    incremental.update(data.data() + 10, data.size() - 10);
    EXPECT_EQ(incremental.value(), crc32(data.data(), data.size()));
    EXPECT_NE(crc32(data.data(), data.size()),
              crc32(data.data(), data.size() - 1));
}

/** The textbook bit-at-a-time CRC-32, independent of the tables. */
std::uint32_t
referenceCrc32(const unsigned char *data, std::size_t size)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
    return crc ^ 0xffffffffu;
}

/** @p size pseudo-random bytes (fixed seed, so failures reproduce). */
std::vector<unsigned char>
noiseBytes(std::size_t size)
{
    std::vector<unsigned char> bytes(size);
    std::uint32_t x = 0x12345678u;
    for (unsigned char &b : bytes) {
        x = x * 1664525u + 1013904223u;
        b = static_cast<unsigned char>(x >> 24);
    }
    return bytes;
}

/** A CRC-32 kernel: raw register in, raw register out. */
using Crc32Kernel = std::uint32_t (*)(std::uint32_t, const unsigned char *,
                                      std::size_t);

/** crc32() of @p size bytes at @p data through @p kernel alone. */
std::uint32_t
crc32With(Crc32Kernel kernel, const unsigned char *data, std::size_t size)
{
    return kernel(0xffffffffu, data, size) ^ 0xffffffffu;
}

/**
 * Lengths 0-1040 from every start offset 0-7 cover: the all-tail
 * path, every tail length after whole 8-byte steps, 8-byte steps at
 * every misalignment, and for the folded kernel the table-only path
 * below 64 bytes, up to 15 fold rounds of 64 bytes, 0-3 further 16-byte
 * folds and every 0-15-byte tail after them.
 *
 * @param one_shot CRC-32 of (bytes, length), as crc32() computes it.
 */
template <typename OneShot>
void
expectMatchesTheBitwiseReference(OneShot one_shot)
{
    const std::vector<unsigned char> bytes = noiseBytes(8 + 1040);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 1040; ++length) {
            ASSERT_EQ(one_shot(bytes.data() + offset, length),
                      referenceCrc32(bytes.data() + offset, length))
                << "offset " << offset << ", length " << length;
        }
    }
}

/** expectMatchesTheBitwiseReference() of one kernel alone. */
void
expectKernelMatchesTheBitwiseReference(Crc32Kernel kernel)
{
    expectMatchesTheBitwiseReference(
        [kernel](const unsigned char *data, std::size_t size) {
            return crc32With(kernel, data, size);
        });
}

/** Two updates split anywhere in 1040 bytes equal one update. */
void
expectSplitUpdatesEqualOneShot(Crc32Kernel kernel)
{
    const std::vector<unsigned char> bytes = noiseBytes(1040);
    const std::uint32_t whole = crc32With(kernel, bytes.data(), bytes.size());
    EXPECT_EQ(whole, referenceCrc32(bytes.data(), bytes.size()));
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
        std::uint32_t crc = kernel(0xffffffffu, bytes.data(), split);
        crc = kernel(crc, bytes.data() + split, bytes.size() - split);
        ASSERT_EQ(crc ^ 0xffffffffu, whole) << "split at " << split;
    }
}

/** The folded kernel, or null where this CPU cannot run it. */
Crc32Kernel
foldedKernel()
{
#if defined(__x86_64__)
    if (detail::crc32FoldSupported())
        return &detail::crc32Folded;
#endif
    return nullptr;
}

TEST(Crc32Test, MatchesTheBitwiseReferenceAtEveryLengthAndAlignment)
{
    // The slicing-by-8 tables, and the public crc32() as dispatched.
    expectKernelMatchesTheBitwiseReference(&detail::crc32Table);
    expectMatchesTheBitwiseReference(
        [](const unsigned char *data, std::size_t size) {
            return crc32(data, size);
        });
}

TEST(Crc32Test, FoldedKernelMatchesTheBitwiseReference)
{
    const Crc32Kernel folded = foldedKernel();
    if (folded == nullptr)
        GTEST_SKIP() << "this CPU has no PCLMULQDQ + SSE4.1 (or is not "
                        "x86-64): Crc32 runs the table kernel alone";
    expectKernelMatchesTheBitwiseReference(folded);
}

TEST(Crc32Test, SplitUpdatesEqualOneShotAtEverySplitPoint)
{
    expectSplitUpdatesEqualOneShot(&detail::crc32Table);
    const std::vector<unsigned char> bytes = noiseBytes(1040);
    const std::uint32_t whole = crc32(bytes.data(), bytes.size());
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
        Crc32 incremental;
        incremental.update(bytes.data(), split);
        incremental.update(bytes.data() + split, bytes.size() - split);
        ASSERT_EQ(incremental.value(), whole) << "split at " << split;
    }
}

TEST(Crc32Test, FoldedKernelSplitUpdatesEqualOneShot)
{
    const Crc32Kernel folded = foldedKernel();
    if (folded == nullptr)
        GTEST_SKIP() << "this CPU has no PCLMULQDQ + SSE4.1 (or is not "
                        "x86-64): Crc32 runs the table kernel alone";
    expectSplitUpdatesEqualOneShot(folded);
}

/** Restores a clean (inactive) global fault injector on scope exit. */
struct InjectorGuard
{
    ~InjectorGuard() { io::configureFaultInjection(""); }
};

TEST(FaultInjector, FiresOnTheNthOperationOnce)
{
    InjectorGuard guard;
    io::configureFaultInjection("write:2:enospc,read:1:eio");
    EXPECT_EQ(io::faultInjector().next("write"), io::FaultKind::None);
    EXPECT_EQ(io::faultInjector().next("write"),
              io::FaultKind::Enospc);
    EXPECT_EQ(io::faultInjector().next("write"), io::FaultKind::None)
        << "a clause fires exactly once";
    EXPECT_EQ(io::faultInjector().next("read"), io::FaultKind::Eio);
    EXPECT_EQ(io::faultInjector().next("read"), io::FaultKind::None);
}

TEST(FaultInjector, BadSpecDies)
{
    EXPECT_EXIT(io::configureFaultInjection("write:1:frobnicate"),
                ::testing::ExitedWithCode(1), "unknown fault kind");
    EXPECT_EXIT(io::configureFaultInjection("teleport:1:eio"),
                ::testing::ExitedWithCode(1), "unknown fault-inject op");
    EXPECT_EXIT(io::configureFaultInjection("write:zero:eio"),
                ::testing::ExitedWithCode(1), "bad fault-inject");
    // Retired specs die rather than silently becoming no-ops.
    EXPECT_EXIT(io::configureFaultInjection("mmap:1:eio"),
                ::testing::ExitedWithCode(1), "unknown fault-inject op");
    EXPECT_EXIT(io::configureFaultInjection("open:1:mmap-fail"),
                ::testing::ExitedWithCode(1), "unknown fault kind");
    EXPECT_EXIT(io::configureFaultInjection("capture:1:sigint"),
                ::testing::ExitedWithCode(1), "unknown fault-inject op");
    EXPECT_EXIT(io::configureFaultInjection("block:1:eio"),
                ::testing::ExitedWithCode(1), "unknown fault-inject op");
    EXPECT_EXIT(io::configureFaultInjection("read:1:block-crc"),
                ::testing::ExitedWithCode(1), "unknown fault kind");
    EXPECT_EXIT(io::configureFaultInjection("write:1:enospc-capture"),
                ::testing::ExitedWithCode(1), "unknown fault kind");
}

TEST(IoFile, InjectedWriteFailureCarriesErrnoDetail)
{
    InjectorGuard guard;
    io::configureFaultInjection("write:1:enospc");
    io::File file;
    const std::string path = "/tmp/vpsim_io_enospc.bin";
    ASSERT_TRUE(file.openForWrite(path).isOk());
    const Status put = file.writeAll("abc", 3);
    ASSERT_FALSE(put.isOk());
    EXPECT_EQ(put.code(), StatusCode::kIo);
    EXPECT_NE(put.message().find("No space left on device"),
              std::string::npos)
        << put.message();
    EXPECT_NE(put.message().find(path), std::string::npos)
        << "errors must name the file: " << put.message();
    file.close();
    std::remove(path.c_str());
}

TEST(IoFile, TornWriteLosesTheTailSilently)
{
    InjectorGuard guard;
    io::configureFaultInjection("write:1:torn,seed:7");
    const std::string path = "/tmp/vpsim_io_torn.bin";
    io::File file;
    ASSERT_TRUE(file.openForWrite(path).isOk());
    std::vector<char> payload(1024, 'x');
    EXPECT_TRUE(file.writeAll(payload.data(), payload.size()).isOk())
        << "a torn write reports success, like a crash before fsync";
    EXPECT_TRUE(file.flush().isOk());
    file.close();

    io::File reread;
    ASSERT_TRUE(reread.openForRead(path).isOk());
    const Status got = reread.readExact(payload.data(), payload.size());
    ASSERT_FALSE(got.isOk()) << "the tail must be missing";
    EXPECT_EQ(got.code(), StatusCode::kCorrupt);
    reread.close();
    std::remove(path.c_str());
}

TEST(IoFile, PositionedReadKeepsTheReadPositionAndIsFaultCounted)
{
    InjectorGuard guard;
    const std::string path = "/tmp/vpsim_io_pread.bin";
    {
        io::File file;
        ASSERT_TRUE(file.openForWrite(path).isOk());
        ASSERT_TRUE(file.writeAll("0123456789", 10).isOk());
    }
    io::File file;
    ASSERT_TRUE(file.openForRead(path).isOk());
    std::uint64_t bytes = 0;
    ASSERT_TRUE(file.sizeBytes(&bytes).isOk());
    EXPECT_EQ(bytes, 10u);

    io::configureFaultInjection("read:1:eio");
    char tail[3] = {};
    const Status faulted = file.readExactAt(7, tail, sizeof(tail));
    ASSERT_FALSE(faulted.isOk());
    EXPECT_EQ(faulted.code(), StatusCode::kIo);
    EXPECT_NE(faulted.message().find(path), std::string::npos)
        << faulted.message();
    ASSERT_TRUE(file.readExactAt(7, tail, sizeof(tail)).isOk());
    EXPECT_EQ(std::string(tail, sizeof(tail)), "789");

    char head[4] = {};
    ASSERT_TRUE(file.readExact(head, sizeof(head)).isOk());
    EXPECT_EQ(std::string(head, sizeof(head)), "0123")
        << "a positioned read must not move the read position";
    const Status past_end = file.readExactAt(8, tail, sizeof(tail));
    ASSERT_FALSE(past_end.isOk());
    EXPECT_EQ(past_end.code(), StatusCode::kCorrupt);
    file.close();
    std::remove(path.c_str());
}

TEST(IoFile, SyncFlushesAndSurvivesReopen)
{
    const std::string path = "/tmp/vpsim_io_sync.bin";
    io::File file;
    ASSERT_TRUE(file.openForWrite(path).isOk());
    ASSERT_TRUE(file.writeAll("synced", 6).isOk());
    ASSERT_TRUE(file.sync().isOk());
    file.close();

    io::File reread;
    ASSERT_TRUE(reread.openForRead(path).isOk());
    char buffer[6];
    ASSERT_TRUE(reread.readExact(buffer, sizeof(buffer)).isOk());
    EXPECT_EQ(std::string(buffer, 6), "synced");
    reread.close();
    std::remove(path.c_str());
}

TEST(IoFile, SyncRoutesThroughTheFlushFaultCounter)
{
    InjectorGuard guard;
    io::configureFaultInjection("flush:1:enospc");
    const std::string path = "/tmp/vpsim_io_sync_fault.bin";
    io::File file;
    ASSERT_TRUE(file.openForWrite(path).isOk());
    ASSERT_TRUE(file.writeAll("abc", 3).isOk());
    const Status synced = file.sync();
    ASSERT_FALSE(synced.isOk());
    EXPECT_EQ(synced.code(), StatusCode::kIo);
    EXPECT_NE(synced.message().find("No space left on device"),
              std::string::npos)
        << synced.message();
    file.close();
    std::remove(path.c_str());
}

TEST(IoFile, ShortFileReadsAsCorruptNotIo)
{
    const std::string path = "/tmp/vpsim_io_short.bin";
    {
        io::File file;
        ASSERT_TRUE(file.openForWrite(path).isOk());
        ASSERT_TRUE(file.writeAll("ab", 2).isOk());
    }
    io::File file;
    ASSERT_TRUE(file.openForRead(path).isOk());
    char buffer[16];
    const Status got = file.readExact(buffer, sizeof(buffer));
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.code(), StatusCode::kCorrupt)
        << "truncation is data corruption, not a transient I/O error";
    file.close();
    std::remove(path.c_str());
}

} // namespace
} // namespace vpsim
