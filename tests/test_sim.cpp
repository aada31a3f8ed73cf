/**
 * @file
 * Tests for the experiment harness: standard options, trace capture
 * (benchmark subsets, scale/seed/skip), figure-table rendering, the
 * CSV exporter, benchmark-name validation, and SimRunner's deterministic
 * grid execution on both executors (thread pool and forked workers).
 */

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/crc32.hpp"
#include "common/fnv1a.hpp"
#include "common/io.hpp"
#include "core/ideal_machine.hpp"
#include "sim/sim_runner.hpp"

namespace vpsim
{
namespace
{

Options
parsedOptions(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    Options options;
    declareStandardOptions(options, 5000);
    declareCsvOption(options);
    options.parse(static_cast<int>(args.size()), args.data(), "test");
    return options;
}

BenchmarkTraces
capture(const Options &options)
{
    SimRunner runner(options);
    return runner.captureBenchmarks();
}

TEST(Harness, DefaultsCaptureAllEight)
{
    const Options options = parsedOptions({});
    const BenchmarkTraces bench = capture(options);
    EXPECT_EQ(bench.size(), 8u);
    for (std::size_t i = 0; i < bench.size(); ++i)
        EXPECT_EQ(bench.trace(i).size(), 5000u);
}

TEST(Harness, BenchmarkSubsetFilter)
{
    const Options options =
        parsedOptions({"--benchmarks", "go,vortex", "--insts", "2000"});
    const BenchmarkTraces bench = capture(options);
    ASSERT_EQ(bench.size(), 2u);
    EXPECT_EQ(bench.names[0], "go");
    EXPECT_EQ(bench.names[1], "vortex");
    EXPECT_EQ(bench.trace(0).size(), 2000u);
}

TEST(Harness, UnknownBenchmarkNameDies)
{
    const Options options =
        parsedOptions({"--benchmarks", "go,notabench"});
    EXPECT_DEATH(capture(options), "unknown benchmark 'notabench'");
    EXPECT_DEATH(capture(options), "valid names");
}

TEST(Harness, SkipDropsWarmup)
{
    const Options plain = parsedOptions({"--insts", "3000"});
    const Options skipped =
        parsedOptions({"--insts", "3000", "--skip", "1000"});
    const auto full = capture(plain);
    const auto warm = capture(skipped);
    ASSERT_EQ(warm.trace(0).size(), 3000u)
        << "--insts counts the measured window, not the warmup";
    // The warm trace must be the tail of a longer run: its first record
    // differs from the cold trace's first record in general, and its
    // seqs are renumbered densely.
    EXPECT_EQ(warm.trace(0)[0].seq, 0u);
    EXPECT_EQ(warm.trace(0)[2999].seq, 2999u);
}

TEST(Harness, ScaleAndSeedReachTheWorkloads)
{
    const Options seeded =
        parsedOptions({"--insts", "3000", "--seed", "7",
                       "--benchmarks", "compress"});
    const Options plain =
        parsedOptions({"--insts", "3000", "--benchmarks", "compress"});
    const auto a = capture(seeded);
    const auto b = capture(plain);
    bool differs = false;
    for (std::size_t i = 0; i < 3000 && !differs; ++i)
        differs = a.trace(0)[i].result != b.trace(0)[i].result;
    EXPECT_TRUE(differs);
}

TEST(Harness, TraceHandlesShareStorage)
{
    // BenchmarkTraces hands out shared_ptr handles; copying the struct
    // must not copy the (large) trace storage.
    const Options options =
        parsedOptions({"--insts", "2000", "--benchmarks", "go"});
    const BenchmarkTraces bench = capture(options);
    const BenchmarkTraces copy = bench;
    EXPECT_EQ(&copy.trace(0), &bench.trace(0));
}

TEST(Harness, FigureTableHasAverageRow)
{
    const std::string table = renderFigureTable(
        "t", {"a", "b"}, {"c1", "c2"},
        {{1.0, 2.0}, {3.0, 4.0}},
        [](double v) { return TablePrinter::numberCell(v, 1); });
    EXPECT_NE(table.find("avg"), std::string::npos);
    EXPECT_NE(table.find("2.0"), std::string::npos)
        << "column c1 average of 1 and 3";
    EXPECT_NE(table.find("3.0"), std::string::npos)
        << "column c2 average of 2 and 4";
}

TEST(Harness, CsvExportWritesTidyRows)
{
    const std::string path = "/tmp/vpsim_test_csv.csv";
    std::remove(path.c_str());
    const Options options = parsedOptions({"--csv", path.c_str()});
    maybeWriteCsv(options, "figX", {"go"}, {"BW=4", "BW=8"},
                  {{0.25, 0.5}});
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), "figX,go,BW=4,0.25\nfigX,go,BW=8,0.5\n");
    std::remove(path.c_str());
}

TEST(Harness, CsvDisabledByDefault)
{
    const Options options = parsedOptions({});
    // Must be a no-op (no crash, no file named "").
    maybeWriteCsv(options, "figX", {"go"}, {"c"}, {{1.0}});
}

TEST(Harness, StallingUsesGrowWithBandwidth)
{
    // The Section 3 mechanism as a harness-level invariant: more fetch
    // bandwidth exposes at least as many stalling dependences.
    const Options options =
        parsedOptions({"--insts", "20000", "--benchmarks", "m88ksim"});
    const BenchmarkTraces bench = capture(options);
    IdealMachineConfig narrow;
    narrow.fetchRate = 4;
    IdealMachineConfig wide;
    wide.fetchRate = 40;
    const auto r_narrow = runIdealMachine(bench.trace(0), narrow);
    const auto r_wide = runIdealMachine(bench.trace(0), wide);
    EXPECT_GT(r_wide.stallingUses, r_narrow.stallingUses);
}

/**
 * A rows × cols grid whose cells carry @p width values, value k of
 * cell (row, col) being cell(row, col) + 100·k. Width 1 runs the
 * scalar form; the wider form first scribbles on value 0, so a
 * throwing cell has already written part of its span.
 */
std::vector<std::vector<double>>
widthGrid(SimRunner &runner, std::size_t rows, std::size_t cols,
          std::size_t width,
          const std::function<double(std::size_t, std::size_t)> &cell)
{
    if (width == 1)
        return runner.runGrid(rows, cols, cell);
    return runner.runGrid(
        rows, cols, width,
        [&cell](std::size_t row, std::size_t col, std::span<double> out) {
            out[0] = -1.0;
            for (std::size_t k = 0; k < out.size(); ++k)
                out[k] = cell(row, col) + 100.0 * static_cast<double>(k);
        });
}

/** Figure 3.1-shaped grid of @p width values under executor @p args. */
std::vector<std::vector<double>>
fig31Grid(std::vector<const char *> args, std::size_t width)
{
    args.insert(args.end(),
                {"--insts", "4000", "--benchmarks", "go,compress,m88ksim"});
    const Options options = parsedOptions(args);
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();
    const std::vector<unsigned> rates = {4, 8, 16};
    return widthGrid(runner, bench.size(), rates.size(), width,
                     [&](std::size_t row, std::size_t col) {
                         IdealMachineConfig config;
                         config.fetchRate = rates[col];
                         return idealVpSpeedup(bench.trace(row), config);
                     });
}

TEST(SimRunner, GridIsDeterministicAcrossJobCounts)
{
    // The acceptance property of the parallel runtime: cell placement is
    // preassigned, so the grid is bit-identical for any worker count of
    // either executor, however many values a cell carries.
    for (const std::size_t width : {1u, 3u}) {
        const auto serial = fig31Grid({"--jobs", "1"}, width);
        ASSERT_EQ(serial.size(), 3u);
        for (const auto &executor :
             {std::vector<const char *>{"--jobs", "4"},
              std::vector<const char *>{"--fleet-workers", "2"}}) {
            const auto parallel = fig31Grid(executor, width);
            ASSERT_EQ(serial.size(), parallel.size());
            for (std::size_t r = 0; r < serial.size(); ++r) {
                ASSERT_EQ(serial[r].size(), 3 * width);
                ASSERT_EQ(serial[r].size(), parallel[r].size());
                for (std::size_t c = 0; c < serial[r].size(); ++c)
                    EXPECT_EQ(serial[r][c], parallel[r][c])
                        << executor[0] << " width " << width << " value ("
                        << r << "," << c << ")";
            }
        }
    }
}

TEST(SimRunner, RunGridShapesOutput)
{
    const Options options = parsedOptions({"--jobs", "2"});
    SimRunner runner(options);
    const auto cells = runner.runGrid(
        3, 2, [](std::size_t row, std::size_t col) {
            return static_cast<double>(10 * row + col);
        });
    ASSERT_EQ(cells.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) {
        ASSERT_EQ(cells[r].size(), 2u);
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_EQ(cells[r][c], static_cast<double>(10 * r + c));
    }
}

TEST(SimRunner, NegativeJobsDies)
{
    const Options options = parsedOptions({"--jobs", "-3"});
    EXPECT_DEATH(SimRunner runner(options), "jobs");
}

/** A 2x2 grid whose (1,0) cell throws; other cells are 10*row+col. */
double
faultyCell(std::size_t row, std::size_t col)
{
    if (row == 1 && col == 0)
        throw std::runtime_error("injected cell failure");
    return static_cast<double>(10 * row + col);
}

TEST(SimRunner, ThrowingJobAbortsTheSweepByDefault)
{
    const Options options = parsedOptions({"--jobs", "2"});
    SimRunner runner(options);
    EXPECT_THROW(runner.runGrid(2, 2, faultyCell), std::runtime_error);
}

TEST(SimRunner, KeepGoingIsolatesTheFailureAsNan)
{
    for (const std::size_t width : {1u, 3u}) {
        const Options options =
            parsedOptions({"--jobs", "2", "--keep-going", "1"});
        SimRunner runner(options);
        const auto cells = widthGrid(runner, 2, 2, width, faultyCell);
        for (std::size_t r = 0; r < 2; ++r) {
            for (std::size_t c = 0; c < 2; ++c) {
                for (std::size_t k = 0; k < width; ++k) {
                    const double value = cells[r][c * width + k];
                    if (r == 1 && c == 0) {
                        EXPECT_TRUE(std::isnan(value))
                            << "every value of the failed cell must be "
                               "visibly absent, not silently zero";
                    } else {
                        EXPECT_EQ(value,
                                  static_cast<double>(10 * r + c + 100 * k));
                    }
                }
            }
        }
        ASSERT_EQ(runner.failures().size(), 1u);
        EXPECT_EQ(runner.failures()[0].label, "cell[1][0]");
        EXPECT_NE(runner.failures()[0].error.find("injected cell failure"),
                  std::string::npos);
    }
}

TEST(SimRunner, ConcurrentFailureSnapshotsStayConsistent)
{
    // failures() takes a locked snapshot, so it is safe to poll from
    // another thread while 8 workers are recording failures. Under
    // TSan this is the regression test for the old unlocked const-ref
    // accessor; on any build it checks snapshot consistency: every
    // observed size must be a plausible prefix of the final list.
    const Options options =
        parsedOptions({"--jobs", "8", "--keep-going", "1"});
    SimRunner runner(options);

    std::atomic<bool> done{false};
    std::atomic<std::size_t> max_seen{0};
    std::thread observer([&] {
        while (!done.load(std::memory_order_acquire)) {
            const std::vector<JobFailure> snapshot = runner.failures();
            std::size_t prev = max_seen.load();
            while (prev < snapshot.size() &&
                   !max_seen.compare_exchange_weak(prev,
                                                   snapshot.size())) {
            }
            for (const JobFailure &failure : snapshot)
                EXPECT_NE(failure.error.find("flaky cell"),
                          std::string::npos);
            std::this_thread::yield();
        }
    });

    constexpr std::size_t rows = 8;
    constexpr std::size_t cols = 8;
    const auto cells =
        runner.runGrid(rows, cols, [](std::size_t row, std::size_t col) {
            if ((row + col) % 3 == 0)
                throw std::runtime_error("flaky cell");
            return static_cast<double>(10 * row + col);
        });
    done.store(true, std::memory_order_release);
    observer.join();

    std::size_t expected_failures = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if ((r + c) % 3 == 0) {
                ++expected_failures;
                EXPECT_TRUE(std::isnan(cells[r][c]));
            } else {
                EXPECT_EQ(cells[r][c],
                          static_cast<double>(10 * r + c));
            }
        }
    }
    EXPECT_EQ(runner.failures().size(), expected_failures);
    EXPECT_LE(max_seen.load(), expected_failures)
        << "a snapshot saw more failures than ever existed";
}

TEST(SimRunner, ResumeWithoutResultStoreDies)
{
    // The combination is rejected at parse time (option validators),
    // before a SimRunner is ever constructed.
    EXPECT_DEATH(parsedOptions({"--resume", "1"}),
                 "--resume 1 requires --result-store");
}

double
gridValue(std::size_t row, std::size_t col)
{
    return static_cast<double>(10 * row + col);
}

/** A fresh result-store directory, removed on destruction. */
struct TempStore
{
    explicit TempStore(const std::string &name)
        : dir(std::filesystem::temp_directory_path() /
              (name + "_" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(dir);
    }
    ~TempStore() { std::filesystem::remove_all(dir); }

    /** Files in the store whose name starts with @p prefix. */
    std::size_t count(const std::string &prefix) const
    {
        std::size_t files = 0;
        for (const auto &entry : std::filesystem::directory_iterator(dir))
            files += entry.path().filename().string().rfind(prefix, 0) == 0;
        return files;
    }

    std::filesystem::path dir;
};

/** What one runner did: cells computed per grid, cells resumed. */
struct StoreRun
{
    std::vector<int> calls;
    std::uint64_t resumed = 0;
};

/**
 * Run @p grids 2×2 grids of @p width values, gridValue() + @p offset
 * in value 0 (see widthGrid()), in a binary named @p program with
 * @p args plus --result-store @p store; every value must come out at
 * its uninterrupted value.
 */
StoreRun
storeRun(const TempStore &store, std::vector<const char *> args,
         std::size_t grids = 1, const char *program = "bench",
         double offset = 0.0, std::size_t width = 1)
{
    const std::string dir = store.dir.string();
    args.insert(args.end(), {"--result-store", dir.c_str()});
    args.insert(args.begin(), program);
    Options options;
    declareStandardOptions(options, 5000);
    declareCsvOption(options);
    options.parse(static_cast<int>(args.size()), args.data(), "test");
    SimRunner runner(options);
    StoreRun run;
    for (std::size_t grid = 0; grid < grids; ++grid) {
        std::atomic<int> calls{0};
        const auto cells = widthGrid(
            runner, 2, 2, width,
            [&calls, offset](std::size_t row, std::size_t col) {
                ++calls;
                return offset + gridValue(row, col);
            });
        for (std::size_t r = 0; r < 2; ++r)
            for (std::size_t c = 0; c < 2; ++c)
                for (std::size_t k = 0; k < width; ++k)
                    EXPECT_EQ(cells[r][c * width + k],
                              offset + gridValue(r, c) +
                                  100.0 * static_cast<double>(k));
        // widthGrid asks @p cell once per value of a computed cell.
        run.calls.push_back(calls.load() / static_cast<int>(width));
    }
    run.resumed = runner.resumedCells();
    return run;
}

TEST(SimRunner, SigintPublishesToTheResultStoreAndResumeFinishes)
{
    // Interrupted sweep, in a death-test child: with --jobs 1 the grid
    // runs in submission order, so `job:2:sigint` lands after exactly
    // one finished cell. The runner must drain, publish every value of
    // that cell, and exit 128+SIGINT.
    for (const std::size_t width : {1u, 3u}) {
        const TempStore store("vpsim_store_sigint" + std::to_string(width));
        EXPECT_EXIT(storeRun(store,
                             {"--jobs", "1", "--fault-inject",
                              "job:2:sigint"},
                             1, "bench", 0.0, width),
                    ::testing::ExitedWithCode(128 + SIGINT),
                    "interrupted by signal 2.*1 of 4 cells published");
        ASSERT_EQ(store.count("shard-"), 1u);

        // Resume: the stored cell's job never runs again, and all of
        // its values come back.
        const StoreRun resumed = storeRun(
            store, {"--jobs", "1", "--resume", "1"}, 1, "bench", 0.0, width);
        EXPECT_EQ(resumed.resumed, 1u);
        EXPECT_EQ(resumed.calls, std::vector<int>{3});
    }
}

TEST(SimRunner, BitFlippedStoreFileIsQuarantinedAndRecomputed)
{
    const TempStore store("vpsim_store_bitflip");
    storeRun(store, {});
    for (const auto &entry : std::filesystem::directory_iterator(store.dir)) {
        std::fstream file(entry.path(), std::ios::in | std::ios::out |
                                            std::ios::binary);
        file.seekg(60);
        const int byte = file.get();
        file.seekp(60);
        file.put(static_cast<char>(byte ^ 0x01));
    }
    const StoreRun resumed = storeRun(store, {"--resume", "1"});
    EXPECT_EQ(resumed.resumed, 0u);
    EXPECT_EQ(resumed.calls, std::vector<int>{4});
    EXPECT_EQ(store.count(".corrupt-shard-"), 1u);
    EXPECT_EQ(store.count("shard-"), 1u) << "the grid republishes intact";
}

TEST(SimRunner, ResumeNeverOpensAShardFileOfTheSalvageLayout)
{
    // Shard files of layout 1 carried a salvage line and were named by
    // the grid hash alone. Plant one for storeRun()'s first grid, with
    // values no cell computes and a valid checksum: a resume must
    // neither merge it nor quarantine it, and must recompute every cell.
    const TempStore store("vpsim_store_salvage_layout");
    std::filesystem::create_directories(store.dir);
    const Options options = parsedOptions({});
    const std::uint64_t run_hash =
        fnv1a("bench", fnv1a(resultFingerprint(options)));
    const std::uint64_t grid_hash =
        fnv1aFold(fnv1aFold(fnv1aFold(fnv1aFold(run_hash, 1), 2), 2), 1);
    char hash_text[24];
    std::snprintf(hash_text, sizeof(hash_text), "%016llx",
                  static_cast<unsigned long long>(grid_hash));
    std::string body = std::string("vpsim-shard-result 1\nfleet ") +
                       hash_text + "\ncells 4\n";
    for (int cell = 0; cell < 4; ++cell) // 999.0 in every cell
        body += std::to_string(cell) + " 408f380000000000\n";
    body += "salvage 0 0 0 0\n";
    char footer[24];
    std::snprintf(footer, sizeof(footer), "crc32 %08x\n",
                  crc32(body.data(), body.size()));
    body += footer;
    const auto planted =
        store.dir / ("shard-" + std::string(hash_text) + "-c0-c3.vpshard");
    std::ofstream(planted, std::ios::binary) << body;

    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const StoreRun resumed = storeRun(store, {"--resume", "1"});
    const std::string out = ::testing::internal::GetCapturedStdout();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(resumed.resumed, 0u);
    EXPECT_EQ(resumed.calls, std::vector<int>{4})
        << "every cell recomputed, none served at 999";
    EXPECT_EQ(store.count(".corrupt-"), 0u) << err;
    EXPECT_TRUE(std::filesystem::exists(planted))
        << "the old file is left alone, not opened";
    EXPECT_TRUE(out.empty()) << out;
    EXPECT_EQ(err.find("quarantined"), std::string::npos) << err;
    EXPECT_EQ(err.find("resumed"), std::string::npos) << err;
}

TEST(SimRunner, ResumeServesFinishedGridsWholeAndTheInterruptedOnePartly)
{
    // Grid 1 finishes (jobs 1-4); grid 2 is interrupted at job 6,
    // after one finished cell.
    const TempStore store("vpsim_store_twogrids");
    EXPECT_EXIT(storeRun(store, {"--jobs", "1", "--fault-inject",
                                 "job:6:sigint"},
                         2),
                ::testing::ExitedWithCode(128 + SIGINT),
                "1 of 4 cells published");
    const StoreRun resumed =
        storeRun(store, {"--jobs", "1", "--resume", "1"}, 2);
    EXPECT_EQ(resumed.calls, (std::vector<int>{0, 3}));
    EXPECT_EQ(resumed.resumed, 5u);
}

TEST(SimRunner, ResumeReusesCellsAcrossExecutionOptionsOnly)
{
    const TempStore store("vpsim_store_identity");
    const std::string csv = store.dir.string() + ".csv";
    storeRun(store, {"--insts", "5000"});
    // --insts defines the experiment: nothing may be reused.
    EXPECT_EQ(storeRun(store, {"--resume", "1", "--insts", "6000"}).resumed,
              0u);
    // --jobs and --csv change how the sweep runs, not what it computes.
    EXPECT_EQ(storeRun(store, {"--resume", "1", "--insts", "5000",
                               "--jobs", "3", "--csv", csv.c_str()})
                  .resumed,
              4u);
    // So does the executor: a store written by the thread pool serves
    // worker processes, and the reverse.
    EXPECT_EQ(storeRun(store, {"--resume", "1", "--insts", "5000",
                               "--fleet-workers", "2"})
                  .resumed,
              4u);
    const TempStore process_store("vpsim_store_identity_process");
    storeRun(process_store, {"--insts", "5000", "--fleet-workers", "2"});
    EXPECT_EQ(process_store.count("shard-"), 4u) << "one file per worker shard";
    EXPECT_EQ(storeRun(process_store, {"--resume", "1", "--insts", "5000"})
                  .resumed,
              4u);
    // The same 2×2 grid with two values per cell is another grid.
    EXPECT_EQ(storeRun(store, {"--resume", "1", "--insts", "5000"}, 1,
                       "bench", 0.0, 2)
                  .resumed,
              0u);
}

TEST(SimRunner, BinariesSharingAStoreNeverServeEachOthersCells)
{
    // The ablations declare identical options; only the binary's file
    // name (not its directory) tells their grids apart.
    const TempStore store("vpsim_store_binaries");
    EXPECT_EQ(storeRun(store, {}, 1, "./ablation_table_size", 100.0).resumed,
              0u);
    EXPECT_EQ(storeRun(store, {"--resume", "1"}, 1,
                       "/bin/ablation_vp_penalty", 200.0)
                  .resumed,
              0u);
    EXPECT_EQ(storeRun(store, {"--resume", "1"}, 1, "ablation_table_size",
                       100.0)
                  .resumed,
              4u);
    EXPECT_EQ(storeRun(store, {"--resume", "1"}, 1, "ablation_vp_penalty",
                       200.0)
                  .resumed,
              4u);
}

TEST(SimRunner, SignalBeforeAnyGridSaysTheStoreHasNothingToAdd)
{
    // Job 1 is the capture, so the signal lands before the first grid.
    const TempStore store("vpsim_store_early_sigint");
    const std::string dir = store.dir.string();
    const Options options = parsedOptions(
        {"--jobs", "1", "--benchmarks", "go", "--insts", "2000",
         "--result-store", dir.c_str(), "--fault-inject", "job:1:sigint"});
    EXPECT_EXIT(capture(options), ::testing::ExitedWithCode(128 + SIGINT),
                "signal 2 while no grid was running; every finished grid "
                "is already published to .*vpsim_store_early_sigint");
}

/** Every value of @p cells equals @p expected's, except those of cell
 *  (@p bad_row, @p bad_col), which are all NaN. */
void
expectGridEqualsExceptCell(const std::vector<std::vector<double>> &cells,
                           const std::vector<std::vector<double>> &expected,
                           std::size_t width, std::size_t bad_row,
                           std::size_t bad_col)
{
    ASSERT_EQ(cells.size(), expected.size());
    for (std::size_t r = 0; r < cells.size(); ++r) {
        ASSERT_EQ(cells[r].size(), expected[r].size());
        for (std::size_t at = 0; at < cells[r].size(); ++at) {
            if (r == bad_row && at / width == bad_col)
                EXPECT_TRUE(std::isnan(cells[r][at])) << r << "," << at;
            else
                EXPECT_EQ(cells[r][at], expected[r][at]) << r << "," << at;
        }
    }
}

TEST(SimRunner, ProcessModeQuarantinesACellThatKillsItsWorker)
{
    // Cell (1,0) aborts whichever worker runs it: after the attempt
    // budget it is a failed job, NaN in every value, and every other
    // cell still equals the thread-pool grid.
    const auto aborting = [](std::size_t row, std::size_t col) {
        if (row == 1 && col == 0)
            std::abort();
        return gridValue(row, col);
    };
    for (const std::size_t width : {1u, 3u}) {
        SimRunner threads(parsedOptions({"--jobs", "1"}));
        const auto golden = widthGrid(threads, 2, 2, width, gridValue);
        SimRunner runner(
            parsedOptions({"--fleet-workers", "2", "--keep-going", "1"}));
        const auto cells = widthGrid(runner, 2, 2, width, aborting);
        expectGridEqualsExceptCell(cells, golden, width, 1, 0);
        ASSERT_EQ(runner.failures().size(), 1u);
        EXPECT_EQ(runner.failures()[0].label, "cell[1][0]");
    }
    // Without --keep-going the grid drains, then fails.
    SimRunner strict(parsedOptions({"--fleet-workers", "2"}));
    EXPECT_THROW(strict.runGrid(2, 2, aborting), std::runtime_error);
}

TEST(SimRunner, ProcessModeCrossChecksItsSampleInTheWorkers)
{
    // The sample is the thread pool's; a worker fails a divergent cell
    // like any other failing cell, and only agreeing merged cells count.
    const auto shifted = [](std::size_t row, std::size_t col) {
        return gridValue(row, col) + 1.0;
    };
    for (const bool agree : {true, false}) {
        SimRunner runner(parsedOptions({"--fleet-workers", "2", "--keep-going",
                                        "1", "--cross-check", "1"}));
        const auto cells = runner.runGrid(
            2, 2, gridValue,
            agree ? std::function<double(std::size_t, std::size_t)>(gridValue)
                  : shifted);
        std::size_t nan_cells = 0;
        for (const auto &row : cells)
            for (const double value : row)
                nan_cells += std::isnan(value) ? 1 : 0;
        EXPECT_EQ(nan_cells, agree ? 0u : 1u);
        EXPECT_EQ(runner.crossCheckedCells(), agree ? 1u : 0u);
        EXPECT_EQ(runner.failures().size(), agree ? 0u : 1u);
    }
}

TEST(SimRunner, ProcessModeKillsAWorkerThatStopsHeartbeating)
{
    // Cell (1,0) goes silent; cell (0,1) outlasts the timeout three
    // times over but keeps beating like a machine model does, and the
    // forwarded beats keep its worker alive.
    SimRunner runner(parsedOptions({"--fleet-workers", "2", "--keep-going",
                                    "1", "--job-timeout", "0.5"}));
    const auto cells =
        runner.runGrid(2, 2, [](std::size_t row, std::size_t col) {
            while (row == 1 && col == 0)
                std::this_thread::sleep_for(std::chrono::hours(1));
            if (row == 0 && col == 1) {
                const auto until = std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(1500);
                for (std::uint64_t beat = 1;
                     std::chrono::steady_clock::now() < until; ++beat) {
                    simHeartbeat(beat);
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                }
            }
            return gridValue(row, col);
        });
    expectGridEqualsExceptCell(cells, {{0.0, 1.0}, {10.0, 11.0}}, 1, 1, 0);
    ASSERT_EQ(runner.failures().size(), 1u);
    EXPECT_NE(runner.failures()[0].error.find("timeout"), std::string::npos)
        << runner.failures()[0].error;
    EXPECT_EQ(runner.timedOutJobs(), 3u) << "one kill per attempt";
}

TEST(SimRunner, ProcessModeFiresAnIoFaultClauseAtMostOnce)
{
    // Workers disarm the fault spec they inherit. Write 1 is the
    // parent's store probe; write 2 would be the shard file of every
    // worker if the clause lived on in each child, and no cell would
    // ever publish intact.
    const TempStore store("vpsim_store_torn");
    storeRun(store, {"--fleet-workers", "2", "--fault-inject",
                     "write:2:torn"});
    const StoreRun resumed = storeRun(store, {"--resume", "1"});
    EXPECT_EQ(resumed.resumed, 4u);
    EXPECT_LE(store.count(".corrupt-"), 1u);
}

TEST(SimRunner, ProcessModeSigintKillsWorkersAndPublishesTheMergedCells)
{
    // One worker at a time, one cell per shard: the worker of the last
    // cell signals the parent and hangs. The parent kills it, publishes
    // the three merged cells and exits 128+SIGINT; a resume finishes.
    const TempStore store("vpsim_store_process_sigint");
    const std::string dir = store.dir.string();
    const auto run = [&dir](bool resume) {
        SimRunner runner(parsedOptions(
            {"--fleet-workers", "1", "--result-store", dir.c_str(),
             "--resume", resume ? "1" : "0"}));
        return runner.runGrid(2, 2, [resume](std::size_t row,
                                             std::size_t col) {
            while (!resume && row == 1 && col == 1) {
                ::kill(::getppid(), SIGINT);
                std::this_thread::sleep_for(std::chrono::hours(1));
            }
            return gridValue(row, col);
        });
    };
    EXPECT_EXIT(run(false), ::testing::ExitedWithCode(128 + SIGINT),
                "interrupted by signal 2; 3 of 4 cells published");
    const auto cells = run(true);
    EXPECT_EQ(cells, (std::vector<std::vector<double>>{{0.0, 1.0},
                                                       {10.0, 11.0}}));
}

TEST(Stats, ReportStatsPrintsEveryRunnerCounter)
{
    const Options options = parsedOptions({"--jobs", "1", "--stats", "1"});
    SimRunner runner(options);
    runner.runGrid(1, 3, gridValue);
    ::testing::internal::CaptureStderr();
    runner.reportStats();
    const std::string err = ::testing::internal::GetCapturedStderr();

    // "group.name" padded to 32, value right-aligned in 14, comment.
    char jobs_line[128];
    std::snprintf(jobs_line, sizeof(jobs_line),
                  "sim_runner.%-32s %14d  # %s\n", "jobs", 3,
                  "simulation jobs executed");
    EXPECT_NE(err.find(jobs_line), std::string::npos) << err;
    for (const char *name :
         {"job_micros", "wall_micros", "vm_captures", "vm_capture_micros",
          "failed_jobs", "resumed_cells", "cross_checked_cells",
          "timed_out_jobs", "worker_launches", "worker_retries",
          "quarantined_cells", "invariant_checks"}) {
        EXPECT_NE(err.find("sim_runner." + std::string(name) + " "),
                  std::string::npos)
            << name;
    }
    EXPECT_NE(err.find("# grid cells reloaded from the result store"),
              std::string::npos);
    EXPECT_EQ(err.find("trace_cache"), std::string::npos)
        << "figure benches regenerate their traces: no cache counters";
    EXPECT_EQ(err.find("salvage"), std::string::npos)
        << "no trace file is read, so nothing is salvaged";
}

} // namespace
} // namespace vpsim
