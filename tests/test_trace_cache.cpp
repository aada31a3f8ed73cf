/**
 * @file
 * Tests for the on-disk trace cache: hit/miss behaviour, key
 * sensitivity (any parameter or format-version change must change the
 * entry path), corrupt-entry rejection with a useful error, and the
 * atomic store-then-reload round trip.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/io.hpp"
#include "trace/trace_cache_store.hpp"
#include "trace/trace_v3.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

class TraceCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir = std::filesystem::temp_directory_path() /
            ("vpsim_cache_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
        std::filesystem::remove_all(dir);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    TraceCacheKey keyFor(const std::string &workload, std::uint64_t insts)
    {
        TraceCacheKey key;
        key.workload = workload;
        key.insts = insts;
        return key;
    }

    std::filesystem::path dir;
};

TEST_F(TraceCacheTest, MissThenStoreThenHit)
{
    TraceCacheStore cache(dir.string());
    const auto trace = captureWorkloadTrace("go", 1000);
    const TraceCacheKey key = keyFor("go", 1000);

    std::vector<TraceRecord> out;
    Status error = Status::ok();
    EXPECT_FALSE(cache.tryLoad(key, &out, &error));
    EXPECT_TRUE(error.isOk()) << "a plain miss is not an error";
    EXPECT_EQ(cache.misses(), 1u);

    ASSERT_TRUE(cache.store(key, trace).isOk());
    ASSERT_TRUE(cache.tryLoad(key, &out, &error));
    EXPECT_TRUE(error.isOk());
    EXPECT_EQ(cache.hits(), 1u);
    ASSERT_EQ(out.size(), trace.size());
    EXPECT_EQ(out.back().result, trace.back().result);
}

TEST_F(TraceCacheTest, EveryKeyFieldChangesThePath)
{
    TraceCacheStore cache(dir.string());
    const TraceCacheKey base = keyFor("go", 1000);
    const std::string base_path = cache.pathFor(base);

    TraceCacheKey k = base;
    k.workload = "gcc";
    EXPECT_NE(cache.pathFor(k), base_path);
    k = base;
    k.insts = 2000;
    EXPECT_NE(cache.pathFor(k), base_path);
    k = base;
    k.skip = 100;
    EXPECT_NE(cache.pathFor(k), base_path);
    k = base;
    k.scale = 2;
    EXPECT_NE(cache.pathFor(k), base_path);
    k = base;
    k.seed = 7;
    EXPECT_NE(cache.pathFor(k), base_path);
    k = base;
    k.formatVersion = base.formatVersion + 1;
    EXPECT_NE(cache.pathFor(k), base_path)
        << "format bumps must invalidate old entries";
}

TEST_F(TraceCacheTest, ScaleAndSeedMismatchMiss)
{
    TraceCacheStore cache(dir.string());
    const auto trace = captureWorkloadTrace("compress", 500);
    TraceCacheKey key = keyFor("compress", 500);
    key.scale = 2;
    key.seed = 42;
    ASSERT_TRUE(cache.store(key, trace).isOk());

    std::vector<TraceRecord> out;
    Status error = Status::ok();
    TraceCacheKey other = key;
    other.scale = 4;
    EXPECT_FALSE(cache.tryLoad(other, &out, &error));
    other = key;
    other.seed = 43;
    EXPECT_FALSE(cache.tryLoad(other, &out, &error));
    EXPECT_TRUE(cache.tryLoad(key, &out, &error));
}

TEST_F(TraceCacheTest, CorruptEntryIsAMissWithAnError)
{
    TraceCacheStore cache(dir.string());
    const TraceCacheKey key = keyFor("go", 300);
    const auto trace = captureWorkloadTrace("go", 300);
    ASSERT_TRUE(cache.store(key, trace).isOk());

    // Clobber the entry with garbage shorter than a header.
    const std::string path = cache.pathFor(key);
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("not a trace", file);
    std::fclose(file);

    std::vector<TraceRecord> out;
    Status error = Status::ok();
    EXPECT_FALSE(cache.tryLoad(key, &out, &error));
    EXPECT_FALSE(error.isOk());
    EXPECT_NE(error.message().find(path), std::string::npos)
        << "error must name the bad cache file: " << error.message();
    EXPECT_EQ(cache.misses(), 1u);

    // The canonical recovery: recapture and overwrite in place.
    ASSERT_TRUE(cache.store(key, trace).isOk());
    error = Status::ok();
    EXPECT_TRUE(cache.tryLoad(key, &out, &error));
    EXPECT_TRUE(error.isOk());
}

/** Reset the global fault injector even when a test fails mid-way. */
struct InjectorGuard
{
    ~InjectorGuard() { io::configureFaultInjection(""); }
};

TEST_F(TraceCacheTest, ChecksumCorruptionIsQuarantinedAndRecaptured)
{
    TraceCacheStore cache(dir.string());
    const TraceCacheKey key = keyFor("go", 400);
    const auto trace = captureWorkloadTrace("go", 400);
    ASSERT_TRUE(cache.store(key, trace).isOk());

    // Flip one payload bit: structurally valid, checksum-invalid.
    const std::string path = cache.pathFor(key);
    const long payload_byte =
        static_cast<long>(v3HeaderBytes + v3BlockFrameBytes + 9);
    std::FILE *file = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(file, nullptr);
    std::fseek(file, payload_byte, SEEK_SET);
    const int byte = std::fgetc(file);
    std::fseek(file, payload_byte, SEEK_SET);
    std::fputc(byte ^ 0x01, file);
    std::fclose(file);

    std::vector<TraceRecord> out;
    Status error = Status::ok();
    EXPECT_FALSE(cache.tryLoad(key, &out, &error));
    ASSERT_FALSE(error.isOk());
    const std::string quarantine = cache.quarantinePathFor(key);
    EXPECT_NE(error.message().find("quarantined"), std::string::npos)
        << error.message();
    EXPECT_NE(error.message().find(quarantine), std::string::npos)
        << "error must name the quarantine destination: "
        << error.message();
    EXPECT_FALSE(std::filesystem::exists(path))
        << "the corrupt entry must be moved out of the lookup path";
    EXPECT_TRUE(std::filesystem::exists(quarantine))
        << "the corrupt bytes must be preserved for post-mortem";

    // Recapture: the store-and-reload cycle heals the entry.
    ASSERT_TRUE(cache.store(key, trace).isOk());
    error = Status::ok();
    ASSERT_TRUE(cache.tryLoad(key, &out, &error));
    EXPECT_TRUE(error.isOk());
    ASSERT_EQ(out.size(), trace.size());
    EXPECT_EQ(out.back().result, trace.back().result);
}

TEST_F(TraceCacheTest, ReapsOnlyStaleTemporaries)
{
    std::filesystem::create_directories(dir);
    const auto old_tmp = dir / "go-i400.vptrace.tmp.12345";
    const auto fresh_tmp = dir / "gcc-i400.vptrace.tmp.12346";
    for (const auto &p : {old_tmp, fresh_tmp}) {
        std::FILE *file = std::fopen(p.c_str(), "wb");
        ASSERT_NE(file, nullptr);
        std::fputs("partial", file);
        std::fclose(file);
    }
    std::filesystem::last_write_time(
        old_tmp, std::filesystem::file_time_type::clock::now() -
                     std::chrono::hours(2));

    TraceCacheStore cache(dir.string());
    EXPECT_EQ(cache.reapedTmpFiles(), 1u);
    EXPECT_FALSE(std::filesystem::exists(old_tmp))
        << "stale orphans must be deleted";
    EXPECT_TRUE(std::filesystem::exists(fresh_tmp))
        << "a live concurrent writer's temporary must survive";
}

TEST_F(TraceCacheTest, UnwritableDirectoryDegradesNotDies)
{
    InjectorGuard guard;
    // The constructor's write probe hits the injected ENOSPC, so the
    // store reports itself unusable instead of crashing later.
    io::configureFaultInjection("write:1:enospc");
    TraceCacheStore cache(dir.string());
    ASSERT_FALSE(cache.status().isOk());
    EXPECT_EQ(cache.status().code(), StatusCode::kIo);
    EXPECT_NE(cache.status().message().find("No space left"),
              std::string::npos)
        << cache.status().message();
}

TEST_F(TraceCacheTest, StoreRetriesTransientWriteFailures)
{
    TraceCacheStore cache(dir.string()); // probe before arming faults
    ASSERT_TRUE(cache.status().isOk());
    InjectorGuard guard;
    io::configureFaultInjection("write:2:eio");
    const auto trace = captureWorkloadTrace("go", 200);
    const TraceCacheKey key = keyFor("go", 200);
    ASSERT_TRUE(cache.store(key, trace).isOk())
        << "one EIO mid-write must be absorbed by the retry loop";

    io::configureFaultInjection("read:1:eio");
    std::vector<TraceRecord> out;
    Status error = Status::ok();
    EXPECT_TRUE(cache.tryLoad(key, &out, &error))
        << "one EIO on read must be absorbed by the retry loop: "
        << error.message();
    EXPECT_EQ(out.size(), trace.size());
}

TEST_F(TraceCacheTest, ExpiredQuarantineFilesAreGarbageCollected)
{
    std::filesystem::create_directories(dir);
    const auto old_corpse = dir / ".corrupt-go-i400.vptrace";
    const auto fresh_corpse = dir / ".corrupt-gcc-i400.vptrace";
    const auto old_entry = dir / "go-i400-k0-s1-d0-v3.vptrace";
    for (const auto &p : {old_corpse, fresh_corpse, old_entry}) {
        std::FILE *file = std::fopen(p.c_str(), "wb");
        ASSERT_NE(file, nullptr);
        std::fputs("evidence", file);
        std::fclose(file);
    }
    const auto two_hours_ago =
        std::filesystem::file_time_type::clock::now() -
        std::chrono::hours(2);
    std::filesystem::last_write_time(old_corpse, two_hours_ago);
    std::filesystem::last_write_time(old_entry, two_hours_ago);

    TraceCacheStore cache(dir.string(),
                          TraceCacheStore::defaultTmpReapAge,
                          std::chrono::hours(1));
    EXPECT_EQ(cache.gcRemovedQuarantineFiles(), 1u);
    EXPECT_FALSE(std::filesystem::exists(old_corpse))
        << "expired quarantine evidence must be collected";
    EXPECT_TRUE(std::filesystem::exists(fresh_corpse))
        << "recent evidence stays for post-mortem";
    EXPECT_TRUE(std::filesystem::exists(old_entry))
        << "the GC must never touch real cache entries, however old";
}

TEST_F(TraceCacheTest, QuarantineGcAgeZeroDisablesTheGc)
{
    std::filesystem::create_directories(dir);
    const auto corpse = dir / ".corrupt-go-i400.vptrace";
    std::FILE *file = std::fopen(corpse.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("evidence", file);
    std::fclose(file);
    std::filesystem::last_write_time(
        corpse, std::filesystem::file_time_type::clock::now() -
                    std::chrono::hours(24 * 365));

    TraceCacheStore cache(dir.string(),
                          TraceCacheStore::defaultTmpReapAge,
                          std::chrono::seconds(0));
    EXPECT_EQ(cache.gcRemovedQuarantineFiles(), 0u);
    EXPECT_TRUE(std::filesystem::exists(corpse))
        << "--cache-gc-days 0 must keep evidence forever";
}

TEST_F(TraceCacheTest, V3EntriesRoundTripThroughTheCache)
{
    TraceCacheStore cache(dir.string());
    const auto trace = captureWorkloadTrace("compress", 500);
    const TraceCacheKey key = keyFor("compress", 500);

    std::vector<TraceRecord> out;
    Status error = Status::ok();
    EXPECT_FALSE(cache.tryLoad(key, &out, &error));
    ASSERT_TRUE(cache.store(key, trace).isOk());
    ASSERT_TRUE(cache.tryLoad(key, &out, &error));
    EXPECT_TRUE(error.isOk());
    ASSERT_EQ(out.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); i += 41) {
        EXPECT_EQ(out[i].pc, trace[i].pc);
        EXPECT_EQ(out[i].nextPc, trace[i].nextPc);
        EXPECT_EQ(out[i].result, trace[i].result);
        EXPECT_EQ(out[i].op, trace[i].op);
    }

    // The default key stores block-framed v3 bytes (version byte 3).
    std::FILE *file = std::fopen(cache.pathFor(key).c_str(), "rb");
    ASSERT_NE(file, nullptr);
    unsigned char header[5] = {};
    ASSERT_EQ(std::fread(header, 1, sizeof(header), file),
              sizeof(header));
    std::fclose(file);
    EXPECT_EQ(header[4], traceFormatVersionV3);
}

TEST_F(TraceCacheTest, SalvageModeLoadsADamagedV3EntryStrictQuarantines)
{
    TraceCacheStore strict(dir.string());
    const auto trace = captureWorkloadTrace("go", 400);
    ASSERT_GE(trace.size(), 300u);
    const TraceCacheKey key = keyFor("go", 400);
    // Plant a multi-block entry directly (small blocks), so one rotted
    // block cannot take the whole capture with it.
    const std::string path = strict.pathFor(key);
    ASSERT_TRUE(writeTraceV3(path, trace, 100).isOk());

    // Walk the frames to the second block and flip one payload byte.
    std::FILE *file = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(file, nullptr);
    unsigned char frame[12];
    std::fseek(file, 16, SEEK_SET); // first block frame
    ASSERT_EQ(std::fread(frame, 1, sizeof(frame), file), sizeof(frame));
    std::uint32_t payload0 = 0;
    std::uint32_t lost = 0;
    for (int i = 0; i < 4; ++i) {
        payload0 |= static_cast<std::uint32_t>(frame[8 + i]) << (8 * i);
    }
    const long second = 16 + 12 + static_cast<long>(payload0) + 4;
    std::fseek(file, second, SEEK_SET); // second block frame
    ASSERT_EQ(std::fread(frame, 1, sizeof(frame), file), sizeof(frame));
    ASSERT_EQ(std::memcmp(frame, "VPB3", 4), 0);
    for (int i = 0; i < 4; ++i)
        lost |= static_cast<std::uint32_t>(frame[4 + i]) << (8 * i);
    std::fseek(file, second + 12 + 5, SEEK_SET);
    const int byte = std::fgetc(file);
    std::fseek(file, second + 12 + 5, SEEK_SET);
    std::fputc(byte ^ 0x40, file);
    std::fclose(file);

    // Salvage mode: the damaged entry is a usable hit; exactly the
    // quarantined block's records are missing and the loss is tallied
    // in the process-global registry. The file stays in place.
    salvageRegistry().reset();
    TraceCacheStore salvaging(dir.string());
    salvaging.setSalvageBlocks(true);
    std::vector<TraceRecord> out;
    Status error = Status::ok();
    ASSERT_TRUE(salvaging.tryLoad(key, &out, &error))
        << error.message();
    EXPECT_TRUE(error.isOk());
    EXPECT_EQ(out.size(), trace.size() - lost);
    const SalvageRegistry::Totals totals = salvageRegistry().totals();
    EXPECT_EQ(totals.files, 1u);
    EXPECT_EQ(totals.blocksQuarantined, 1u);
    EXPECT_EQ(totals.recordsLost, lost);
    EXPECT_TRUE(std::filesystem::exists(path))
        << "salvage keeps the entry for later loads";

    // Strict mode (the default): same bytes are quarantined wholesale
    // and reported as a miss, preserving bit-exact figure outputs.
    error = Status::ok();
    EXPECT_FALSE(strict.tryLoad(key, &out, &error));
    EXPECT_FALSE(error.isOk());
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(
        std::filesystem::exists(strict.quarantinePathFor(key)));
    salvageRegistry().reset();
}

TEST_F(TraceCacheTest, EntriesLiveInsideTheDirectory)
{
    TraceCacheStore cache(dir.string());
    const std::string path = cache.pathFor(keyFor("vortex", 1234));
    EXPECT_EQ(path.rfind(dir.string(), 0), 0u)
        << path << " not under " << dir;
    EXPECT_NE(path.find("vortex"), std::string::npos)
        << "entry names should be human-readable";
}

} // namespace
} // namespace vpsim
