/**
 * @file
 * Tests for the on-disk trace cache: hit/miss behaviour, key
 * sensitivity (any parameter or format-version change must change the
 * entry path), corrupt-entry rejection with a useful error, the atomic
 * store-then-reload round trip, and the faults it absorbs: torn writes
 * and checksum damage (quarantined), transient read errors mid-load
 * (retried), ENOSPC mid-capture (retried, never published torn) and a
 * capture killed mid-append (no entry at all).
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

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

    /** Store @p records as one chunk. */
    static Status storeAll(const TraceCacheStore &cache,
                           const TraceCacheKey &key,
                           const std::vector<TraceRecord> &records)
    {
        return cache.storeStreaming(
            key, [&records](const auto &append) { return append(records); });
    }

    /** Where tryLoad() moves a corrupt entry for @p key. */
    static std::filesystem::path quarantinePath(const TraceCacheStore &cache,
                                                const TraceCacheKey &key)
    {
        const std::filesystem::path entry(cache.pathFor(key));
        return entry.parent_path() /
               (".corrupt-" + entry.filename().string());
    }

    /** Files in the cache directory whose name contains @p part. */
    std::size_t countNamed(const std::string &part) const
    {
        std::size_t files = 0;
        for (const auto &entry : std::filesystem::directory_iterator(dir))
            files += entry.path().filename().string().find(part) !=
                     std::string::npos;
        return files;
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

    ASSERT_TRUE(storeAll(cache, key, trace).isOk());
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
    ASSERT_TRUE(storeAll(cache, key, trace).isOk());

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
    ASSERT_TRUE(storeAll(cache, key, trace).isOk());

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
    ASSERT_TRUE(storeAll(cache, key, trace).isOk());
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
    ASSERT_TRUE(storeAll(cache, key, trace).isOk());

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
    const std::string quarantine = quarantinePath(cache, key).string();
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
    ASSERT_TRUE(storeAll(cache, key, trace).isOk());
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

    const TraceCacheStore cache(dir.string());
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
    ASSERT_TRUE(storeAll(cache, key, trace).isOk())
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
    // Quarantined files are kept for a week; temporaries for an hour.
    const auto now = std::filesystem::file_time_type::clock::now();
    std::filesystem::last_write_time(old_corpse,
                                     now - std::chrono::hours(8 * 24));
    std::filesystem::last_write_time(fresh_corpse,
                                     now - std::chrono::hours(6 * 24));
    std::filesystem::last_write_time(old_entry,
                                     now - std::chrono::hours(8 * 24));

    const TraceCacheStore cache(dir.string());
    EXPECT_FALSE(std::filesystem::exists(old_corpse))
        << "expired quarantine evidence must be collected";
    EXPECT_TRUE(std::filesystem::exists(fresh_corpse))
        << "recent evidence stays for post-mortem, though older than "
           "the temporaries' hour";
    EXPECT_TRUE(std::filesystem::exists(old_entry))
        << "the GC must never touch real cache entries, however old";
}

TEST_F(TraceCacheTest, V3EntriesRoundTripThroughTheCache)
{
    TraceCacheStore cache(dir.string());
    const auto trace = captureWorkloadTrace("compress", 500);
    const TraceCacheKey key = keyFor("compress", 500);

    std::vector<TraceRecord> out;
    Status error = Status::ok();
    EXPECT_FALSE(cache.tryLoad(key, &out, &error));
    ASSERT_TRUE(storeAll(cache, key, trace).isOk());
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

TEST_F(TraceCacheTest, TornWriteIsQuarantinedOnTheNextLoad)
{
    const TraceCacheStore cache(dir.string()); // probe before arming
    ASSERT_TRUE(cache.status().isOk());
    const TraceCacheKey key = keyFor("go", 400);
    const auto trace = captureWorkloadTrace("go", 400);
    {
        // A torn write keeps a prefix and reports success, so the
        // store publishes the damaged bytes; only the load can tell.
        InjectorGuard guard;
        io::configureFaultInjection("write:2:torn,seed:7");
        ASSERT_TRUE(storeAll(cache, key, trace).isOk());
    }

    std::vector<TraceRecord> out;
    Status error = Status::ok();
    EXPECT_FALSE(cache.tryLoad(key, &out, &error));
    EXPECT_EQ(error.code(), StatusCode::kCorrupt) << error.message();
    EXPECT_FALSE(std::filesystem::exists(cache.pathFor(key)));
    EXPECT_TRUE(std::filesystem::exists(quarantinePath(cache, key)))
        << "the torn bytes must be kept for post-mortem";
}

TEST_F(TraceCacheTest, LoadRetriesATransientReadErrorMidEntry)
{
    const TraceCacheStore cache(dir.string());
    const TraceCacheKey key = keyFor("compress", 3000);
    const auto trace = captureWorkloadTrace("compress", 3000);
    ASSERT_TRUE(storeAll(cache, key, trace).isOk());

    // Reads 1-3 of a load are the header, the trailer and the first
    // block frame, so read 4 is the block payload: the load fails half
    // way, and the retry must start it over rather than give up.
    InjectorGuard guard;
    io::configureFaultInjection("read:4:eio");
    std::vector<TraceRecord> out;
    Status error = Status::ok();
    ASSERT_TRUE(cache.tryLoad(key, &out, &error)) << error.message();
    EXPECT_TRUE(error.isOk());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 0u);
    ASSERT_EQ(out.size(), trace.size());
    EXPECT_EQ(out.back().result, trace.back().result);
    EXPECT_EQ(countNamed(".corrupt-"), 0u)
        << "a transient error is not corruption";
}

TEST_F(TraceCacheTest, StoreStreamingRetriesAnEnospcMidCapture)
{
    // Three appends of one whole block each per attempt. Each block is
    // three writes (frame header, payload, CRC footer) after the
    // header's one, so write 5 is the second append's frame header.
    constexpr std::size_t block = defaultRecordsPerBlock;
    const TraceCacheStore cache(dir.string());
    const TraceCacheKey key = keyFor("go", 3 * block);
    const auto trace = captureWorkloadTrace("go", 3 * block);
    const std::span<const TraceRecord> all(trace);
    std::size_t appends = 0;
    const auto produce = [&all, &appends](const auto &append) {
        for (std::size_t at = 0; at < all.size(); at += block) {
            const auto chunk = all.subspan(at, block);
            ++appends;
            const Status added = append(
                std::vector<TraceRecord>(chunk.begin(), chunk.end()));
            if (!added.isOk())
                return added;
        }
        return Status::ok();
    };
    {
        InjectorGuard guard;
        io::configureFaultInjection("write:5:enospc");
        ASSERT_TRUE(cache.storeStreaming(key, produce).isOk());
    }
    EXPECT_EQ(appends, 2u + 3u)
        << "the first attempt stops at its second append, the retry "
           "replays all three";
    EXPECT_EQ(countNamed(".tmp."), 0u);

    std::vector<TraceRecord> out;
    Status error = Status::ok();
    ASSERT_TRUE(cache.tryLoad(key, &out, &error)) << error.message();
    ASSERT_EQ(out.size(), trace.size());
    EXPECT_EQ(out.back().result, trace.back().result);
}

TEST_F(TraceCacheTest, StoreStreamingThatKeepsHittingEnospcPublishesNothing)
{
    const TraceCacheStore cache(dir.string());
    const TraceCacheKey key = keyFor("go", 300);
    const auto trace = captureWorkloadTrace("go", 300);
    {
        // The one block of 300 records is flushed by finish(): each
        // attempt writes the header, then fails on the block's frame
        // header, its second write.
        InjectorGuard guard;
        io::configureFaultInjection("write:2:enospc,write:4:enospc,"
                                    "write:6:enospc");
        const Status stored = storeAll(cache, key, trace);
        EXPECT_EQ(stored.code(), StatusCode::kIo) << stored.message();
    }
    EXPECT_FALSE(std::filesystem::exists(cache.pathFor(key)));
    EXPECT_EQ(countNamed(".tmp."), 0u)
        << "each attempt removes its own temporary";
}

TEST_F(TraceCacheTest, CaptureKilledMidAppendLeavesNoEntry)
{
    const TraceCacheStore cache(dir.string());
    const TraceCacheKey key = keyFor("go", defaultRecordsPerBlock);
    const auto trace = captureWorkloadTrace("go", defaultRecordsPerBlock);
    // Each append writes one whole block (writes 2-4, then 5-7). SIGINT
    // at its default disposition ends the process on the second append,
    // with the header and the first block written.
    EXPECT_EXIT(
        {
            io::configureFaultInjection("write:5:sigint");
            (void)cache.storeStreaming(key, [&trace](const auto &append) {
                const Status first = append(trace);
                return first.isOk() ? append(trace) : first;
            });
        },
        ::testing::KilledBySignal(SIGINT), "");

    EXPECT_FALSE(std::filesystem::exists(cache.pathFor(key)))
        << "a killed capture must not publish a torn entry";
    EXPECT_EQ(countNamed(".tmp."), 1u)
        << "the dead writer's temporary waits for the reaper";
    std::vector<TraceRecord> out;
    Status error = Status::ok();
    EXPECT_FALSE(cache.tryLoad(key, &out, &error));
    EXPECT_TRUE(error.isOk()) << "a plain miss: " << error.message();
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
