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

TEST(MappedFile, MapsWholeFileContents)
{
    const std::string path = "/tmp/vpsim_io_mapped.bin";
    const std::string payload = "mapped file payload bytes";
    {
        io::File file;
        ASSERT_TRUE(file.openForWrite(path).isOk());
        ASSERT_TRUE(
            file.writeAll(payload.data(), payload.size()).isOk());
    }
    io::MappedFile mapped;
    ASSERT_TRUE(mapped.map(path).isOk());
    EXPECT_TRUE(mapped.isMapped());
    ASSERT_EQ(mapped.size(), payload.size());
    EXPECT_EQ(std::string(reinterpret_cast<const char *>(mapped.data()),
                          mapped.size()),
              payload);
    mapped.unmap();
    EXPECT_FALSE(mapped.isMapped());
    EXPECT_EQ(mapped.size(), 0u);
    std::remove(path.c_str());
}

TEST(MappedFile, MissingFileIsAnIoError)
{
    io::MappedFile mapped;
    const Status got = mapped.map("/tmp/vpsim_io_mapped_missing.bin");
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.code(), StatusCode::kIo);
    EXPECT_FALSE(mapped.isMapped());
    EXPECT_NE(got.message().find("vpsim_io_mapped_missing"),
              std::string::npos)
        << got.message();
}

TEST(MappedFile, EmptyFileDeclinesSoCallersFallBack)
{
    const std::string path = "/tmp/vpsim_io_mapped_empty.bin";
    {
        io::File file;
        ASSERT_TRUE(file.openForWrite(path).isOk());
    }
    io::MappedFile mapped;
    const Status got = mapped.map(path);
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.code(), StatusCode::kIo);
    EXPECT_FALSE(mapped.isMapped());
    std::remove(path.c_str());
}

TEST(MappedFile, InjectedOpenFaultFails)
{
    InjectorGuard guard;
    const std::string path = "/tmp/vpsim_io_mapped_fault.bin";
    {
        io::File file;
        ASSERT_TRUE(file.openForWrite(path).isOk());
        ASSERT_TRUE(file.writeAll("abc", 3).isOk());
    }
    io::configureFaultInjection("open:1:eio");
    io::MappedFile mapped;
    const Status got = mapped.map(path);
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.code(), StatusCode::kIo);
    EXPECT_NE(got.message().find("(injected)"), std::string::npos)
        << got.message();
    std::remove(path.c_str());
}

TEST(MappedFile, InjectedReadFaultFiresOnTheMmapPath)
{
    // Regression: map() used to consult only the "open" counter, so
    // `read:` fault specs silently skipped the mmap path. The mapping
    // counts as exactly one bulk read.
    InjectorGuard guard;
    const std::string path = "/tmp/vpsim_io_mapped_read_fault.bin";
    {
        io::File file;
        ASSERT_TRUE(file.openForWrite(path).isOk());
        ASSERT_TRUE(file.writeAll("abc", 3).isOk());
    }
    io::configureFaultInjection("read:1:eio");
    io::MappedFile mapped;
    const Status got = mapped.map(path);
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.code(), StatusCode::kIo);
    EXPECT_NE(got.message().find("read error"), std::string::npos)
        << got.message();
    EXPECT_FALSE(mapped.isMapped());

    // The clause fired on the mapping, so a retry succeeds and the
    // read counter advanced exactly once.
    ASSERT_TRUE(mapped.map(path).isOk());
    EXPECT_EQ(mapped.size(), 3u);
    std::remove(path.c_str());
}

TEST(MappedFile, InjectedMmapFailLeavesBufferedFallbackWorking)
{
    InjectorGuard guard;
    const std::string path = "/tmp/vpsim_io_mapped_mmap_fail.bin";
    {
        io::File file;
        ASSERT_TRUE(file.openForWrite(path).isOk());
        ASSERT_TRUE(file.writeAll("abc", 3).isOk());
    }
    io::configureFaultInjection("mmap:1:mmap-fail");
    io::MappedFile mapped;
    const Status got = mapped.map(path);
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.code(), StatusCode::kIo);
    EXPECT_NE(got.message().find("cannot map"), std::string::npos)
        << got.message();

    // The buffered path is untouched by mmap clauses — exactly the
    // degradation callers rely on.
    io::File fallback;
    ASSERT_TRUE(fallback.openForRead(path).isOk());
    char buffer[3];
    EXPECT_TRUE(fallback.readExact(buffer, sizeof(buffer)).isOk());
    fallback.close();
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
