/**
 * @file
 * Tests for the self-checking simulation core: the invariant engine
 * (levels, counters, kInternal statuses), the Status cause chain, the
 * golden-reference ideal machine and the --cross-check differential
 * mode, the --job-timeout watchdog, parse-time option-combination
 * validation, and the signed run manifests written next to --csv files.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.hpp"
#include "common/crc32.hpp"
#include "common/invariant.hpp"
#include "common/status.hpp"
#include "core/ideal_machine.hpp"
#include "core/reference_machine.hpp"
#include "sim/sim_runner.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

/** Restore the process-wide invariant level on scope exit. */
struct LevelGuard
{
    InvariantLevel saved = invariantLevel();
    ~LevelGuard() { setInvariantLevel(saved); }
};

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

TraceRecord
rec(SeqNum seq, RegIndex rd, RegIndex rs1 = invalidReg, Value result = 0)
{
    TraceRecord record;
    record.seq = seq;
    record.pc = 0x1000 + seq * instBytes;
    record.nextPc = record.pc + instBytes;
    record.op = rs1 == invalidReg ? OpCode::Addi : OpCode::Add;
    record.rd = rd;
    record.rs1 = rs1 == invalidReg ? 0 : rs1;
    record.rs2 = rs1 == invalidReg ? invalidReg : 0;
    record.result = result;
    return record;
}

/** A value-varied mix of chains and independents for the differential. */
std::vector<TraceRecord>
mixedTrace(std::size_t length)
{
    std::vector<TraceRecord> trace;
    for (SeqNum seq = 0; seq < length; ++seq) {
        const auto reg = static_cast<RegIndex>(1 + seq % 6);
        if (seq % 3 == 0 && seq > 6) {
            // Dependent on an earlier register, stride-friendly value.
            trace.push_back(rec(seq, reg, static_cast<RegIndex>(1 + (seq + 1) % 6),
                                static_cast<Value>(seq * 4)));
        } else if (seq % 7 == 0) {
            // Value the stride predictor will miss (irregular).
            trace.push_back(
                rec(seq, reg, invalidReg,
                    static_cast<Value>((seq * 2654435761u) & 0xffff)));
        } else {
            trace.push_back(rec(seq, reg, invalidReg,
                                static_cast<Value>(100 + seq % 5)));
        }
    }
    return trace;
}

// ---------------------------------------------------------------------
// Invariant engine
// ---------------------------------------------------------------------

TEST(Invariants, LevelGatesWhichTiersRun)
{
    LevelGuard guard;

    setInvariantLevel(InvariantLevel::Off);
    EXPECT_FALSE(invariantsActive(InvariantLevel::Cheap));
    EXPECT_NO_THROW(
        checkInvariant(InvariantLevel::Cheap, false, "t.gated", std::string("x")));

    setInvariantLevel(InvariantLevel::Cheap);
    EXPECT_TRUE(invariantsActive(InvariantLevel::Cheap));
    EXPECT_FALSE(invariantsActive(InvariantLevel::Full));
    EXPECT_NO_THROW(
        checkInvariant(InvariantLevel::Full, false, "t.full_gated", std::string("x")));
    EXPECT_THROW(
        checkInvariant(InvariantLevel::Cheap, false, "t.cheap", std::string("x")),
        InvariantViolation);

    setInvariantLevel(InvariantLevel::Full);
    EXPECT_THROW(
        checkInvariant(InvariantLevel::Full, false, "t.full", std::string("x")),
        InvariantViolation);
}

TEST(Invariants, ViolationCarriesInternalStatusAndCounts)
{
    LevelGuard guard;
    setInvariantLevel(InvariantLevel::Cheap);
    const std::uint64_t violations_before = invariantViolations();
    const std::uint64_t checks_before = invariantChecksEvaluated();

    try {
        checkInvariant(InvariantLevel::Cheap, false, "t.status",
                       std::string("the detail"));
        FAIL() << "must throw";
    } catch (const InvariantViolation &violation) {
        EXPECT_EQ(violation.status().code(), StatusCode::kInternal);
        EXPECT_EQ(violation.check(), "t.status");
        EXPECT_NE(std::string(violation.what())
                      .find("invariant 't.status' violated: the detail"),
                  std::string::npos);
    }
    EXPECT_EQ(invariantViolations(), violations_before + 1);
    EXPECT_GT(invariantChecksEvaluated(), checks_before);
}

TEST(Invariants, LazyDetailOnlyBuiltOnFailure)
{
    LevelGuard guard;
    setInvariantLevel(InvariantLevel::Cheap);
    bool built = false;
    checkInvariant(InvariantLevel::Cheap, true, "t.lazy", [&] {
        built = true;
        return std::string("expensive");
    });
    EXPECT_FALSE(built) << "detail must not be built when the check holds";
    EXPECT_THROW(checkInvariant(InvariantLevel::Cheap, false, "t.lazy",
                                [&] {
                                    built = true;
                                    return std::string("expensive");
                                }),
                 InvariantViolation);
    EXPECT_TRUE(built);
}

/** Evaluate @p count passing Cheap checks on the calling thread. */
void
evaluateChecks(std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        checkInvariant(InvariantLevel::Cheap, true, "t.tally",
                       [] { return std::string(); });
}

TEST(Invariants, ChecksEvaluatedSumsAcrossThreads)
{
    LevelGuard guard;
    setInvariantLevel(InvariantLevel::Cheap);
    constexpr unsigned kPerGroup = 4;
    constexpr std::uint64_t kChecks = 20000;
    constexpr std::uint64_t kTotal = 3 * kPerGroup * kChecks;
    const std::uint64_t before = invariantChecksEvaluated();

    // A reader races every counting thread: the sum may lag them, but
    // it never goes backwards and never overshoots.
    std::atomic<bool> stopReader{false};
    std::atomic<bool> monotonic{true};
    std::atomic<bool> bounded{true};
    std::thread reader([&] {
        std::uint64_t last = before;
        while (!stopReader.load()) {
            const std::uint64_t now = invariantChecksEvaluated();
            if (now < last)
                monotonic = false;
            if (now > before + kTotal)
                bounded = false;
            last = now;
        }
    });

    // Early threads exit before the others start, so later threads
    // take over their tallies; exiting threads run alongside live ones;
    // live threads are still running when the total is read.
    std::vector<std::thread> early, exiting, live;
    for (unsigned t = 0; t < kPerGroup; ++t)
        early.emplace_back([] { evaluateChecks(kChecks); });
    for (std::thread &thread : early)
        thread.join();
    std::atomic<unsigned> liveCounted{0};
    std::atomic<bool> releaseLive{false};
    for (unsigned t = 0; t < kPerGroup; ++t) {
        exiting.emplace_back([] { evaluateChecks(kChecks); });
        live.emplace_back([&] {
            evaluateChecks(kChecks);
            liveCounted.fetch_add(1);
            while (!releaseLive.load())
                std::this_thread::yield();
        });
    }
    for (std::thread &thread : exiting)
        thread.join();
    while (liveCounted.load() < kPerGroup)
        std::this_thread::yield();
    EXPECT_EQ(invariantChecksEvaluated(), before + kTotal)
        << "live and exited threads must both be counted";

    releaseLive = true;
    for (std::thread &thread : live)
        thread.join();
    stopReader = true;
    reader.join();
    EXPECT_EQ(invariantChecksEvaluated(), before + kTotal);
    EXPECT_TRUE(monotonic.load());
    EXPECT_TRUE(bounded.load());
}

TEST(Invariants, ChecksEvaluatedIsForkSafe)
{
    LevelGuard guard;
    setInvariantLevel(InvariantLevel::Cheap);
    // Parent threads keep starting, counting and exiting, and others
    // keep reading the total, so forks land while tallies are claimed,
    // given back and summed. Anything on those paths that a fork can
    // leave locked hangs the child.
    struct Churn
    {
        std::atomic<bool> stop{false};
        std::vector<std::thread> threads;
        ~Churn()
        {
            stop = true;
            for (std::thread &thread : threads)
                thread.join();
        }
    } churn;
    for (int t = 0; t < 2; ++t) {
        churn.threads.emplace_back([&stop = churn.stop] {
            while (!stop.load())
                std::thread([] { evaluateChecks(16); }).join();
        });
        churn.threads.emplace_back([&stop = churn.stop] {
            while (!stop.load())
                static_cast<void>(invariantChecksEvaluated());
        });
    }

    for (int round = 0; round < 50; ++round) {
        SCOPED_TRACE(round);
        // Fork from a fresh thread: the child's first check has to
        // claim a tally after the fork.
        pid_t pid = -1;
        std::thread([&pid] {
            pid = ::fork();
            if (pid == 0) {
                const std::uint64_t before = invariantChecksEvaluated();
                evaluateChecks(1000);
                ::_exit(invariantChecksEvaluated() == before + 1000 ? 0
                                                                    : 1);
            }
        }).join();
        ASSERT_GT(pid, 0);

        int status = 0;
        pid_t reaped = 0;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while ((reaped = ::waitpid(pid, &status, WNOHANG)) == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (reaped == 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
        }
        ASSERT_EQ(reaped, pid) << "forked child hung counting checks";
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "child's total was not its snapshot plus its own checks";
    }
}

TEST(Invariants, LevelNamesRoundTrip)
{
    EXPECT_EQ(invariantLevelFromString("off"), InvariantLevel::Off);
    EXPECT_EQ(invariantLevelFromString("cheap"), InvariantLevel::Cheap);
    EXPECT_EQ(invariantLevelFromString("full"), InvariantLevel::Full);
    EXPECT_STREQ(invariantLevelName(InvariantLevel::Full), "full");
    EXPECT_DEATH(invariantLevelFromString("loud"),
                 "off, cheap or full");
}

// ---------------------------------------------------------------------
// Status cause chain
// ---------------------------------------------------------------------

TEST(Status, WrapPreservesCauseChain)
{
    const Status root =
        Status::error(StatusCode::kCorrupt, "bad checksum in trace");
    const Status wrapped = Status::wrap(
        StatusCode::kInternal, "invariant tripped while loading", root);

    EXPECT_EQ(wrapped.code(), StatusCode::kInternal);
    EXPECT_EQ(wrapped.rootCause(), StatusCode::kCorrupt);
    ASSERT_NE(wrapped.cause(), nullptr);
    EXPECT_EQ(wrapped.cause()->code(), StatusCode::kCorrupt);
    EXPECT_NE(wrapped.message().find("[corrupt] bad checksum"),
              std::string::npos)
        << "composed message must include the cause";
}

TEST(Status, InternalCodeHasAName)
{
    EXPECT_STREQ(statusCodeName(StatusCode::kInternal), "internal");
    const Status plain = Status::error(StatusCode::kIo, "disk");
    EXPECT_EQ(plain.cause(), nullptr);
    EXPECT_EQ(plain.rootCause(), StatusCode::kIo);
}

// ---------------------------------------------------------------------
// Golden-reference machine
// ---------------------------------------------------------------------

void
expectSameResult(const std::vector<TraceRecord> &trace,
                 const IdealMachineConfig &config, const char *label)
{
    const IdealMachineResult primary = runIdealMachine(trace, config);
    const IdealMachineResult reference =
        runReferenceIdealMachine(trace, config);
    EXPECT_EQ(primary.cycles, reference.cycles) << label;
    EXPECT_EQ(primary.instructions, reference.instructions) << label;
    EXPECT_EQ(primary.predictionsMade, reference.predictionsMade)
        << label;
    EXPECT_EQ(primary.predictionsCorrect, reference.predictionsCorrect)
        << label;
    EXPECT_EQ(primary.predictionsWrong, reference.predictionsWrong)
        << label;
    EXPECT_EQ(primary.stallingUses, reference.stallingUses) << label;
    EXPECT_EQ(primary.correctlyPredictedUses,
              reference.correctlyPredictedUses)
        << label;
    EXPECT_EQ(primary.usefulPredictions, reference.usefulPredictions)
        << label;
}

TEST(ReferenceMachine, MatchesPrimaryAcrossConfigs)
{
    const auto synthetic = mixedTrace(600);
    const auto workload = captureWorkloadTrace("compress", 3000);

    for (const auto *trace : {&synthetic, &workload}) {
        IdealMachineConfig config;
        for (const unsigned rate : {1u, 4u, 16u, 40u}) {
            config = IdealMachineConfig{};
            config.fetchRate = rate;
            expectSameResult(*trace, config, "no-vp");

            config.useValuePrediction = true;
            expectSameResult(*trace, config, "stride vp");

            config.vpPenalty = 3;
            expectSameResult(*trace, config, "penalty 3");

            config.vpPenalty = 1;
            config.windowSize = 16;
            expectSameResult(*trace, config, "window 16");

            config.windowSize = 40;
            config.vpScope = VpScope::LoadsOnly;
            expectSameResult(*trace, config, "loads only");

            config.vpScope = VpScope::AllInstructions;
            config.perfectValuePrediction = true;
            expectSameResult(*trace, config, "perfect vp");
        }
    }
}

TEST(ReferenceMachine, SpeedupMatchesPrimary)
{
    const auto trace = mixedTrace(500);
    IdealMachineConfig config;
    config.fetchRate = 16;
    EXPECT_DOUBLE_EQ(idealVpSpeedup(trace, config),
                     referenceIdealVpSpeedup(trace, config));
}

// ---------------------------------------------------------------------
// --cross-check differential mode
// ---------------------------------------------------------------------

TEST(CrossCheck, AgreementPassesAndIsCounted)
{
    const Options options = parsedOptions({"--cross-check", "3"});
    SimRunner runner(options);
    const auto cells = runner.runGrid(
        2, 3, [](std::size_t row, std::size_t col) {
            return static_cast<double>(row * 10 + col);
        },
        [](std::size_t row, std::size_t col) {
            return static_cast<double>(row * 10 + col);
        });
    for (std::size_t row = 0; row < 2; ++row)
        for (std::size_t col = 0; col < 3; ++col)
            EXPECT_EQ(cells[row][col],
                      static_cast<double>(row * 10 + col));
    EXPECT_EQ(runner.crossCheckedCells(), 3u);
    EXPECT_TRUE(runner.failures().empty());
}

TEST(CrossCheck, DivergencePoisonsTheCellUnderKeepGoing)
{
    // The reference disagrees only in a cell's last value, yet the
    // sampled cell must lose every value it carries.
    for (const std::size_t width : {1u, 3u}) {
        const Options options =
            parsedOptions({"--cross-check", "1", "--keep-going", "1"});
        SimRunner runner(options);
        const auto cells = runner.runGrid(
            2, 2, width,
            [](std::size_t, std::size_t, std::span<double> out) {
                std::ranges::fill(out, 1.0);
            },
            [](std::size_t, std::size_t, std::span<double> out) {
                std::ranges::fill(out, 1.0);
                out.back() = 2.0;
            });
        std::size_t nan_cells = 0;
        for (const auto &row : cells) {
            for (std::size_t c = 0; c < 2; ++c) {
                std::size_t nans = 0;
                for (std::size_t k = 0; k < width; ++k)
                    nans += std::isnan(row[c * width + k]) ? 1 : 0;
                EXPECT_TRUE(nans == 0 || nans == width)
                    << nans << " of " << width << " values poisoned";
                nan_cells += nans == width ? 1 : 0;
            }
        }
        EXPECT_EQ(nan_cells, 1u)
            << "exactly the sampled cell must be poisoned";
        ASSERT_EQ(runner.failures().size(), 1u);
        const std::string error = runner.failures()[0].error;
        EXPECT_NE(error.find("cross-check"), std::string::npos);
        EXPECT_NE(error.find("internal"), std::string::npos);
        EXPECT_NE(error.find("value " + std::to_string(width - 1) +
                             " diverges"),
                  std::string::npos)
            << error;
        EXPECT_EQ(runner.crossCheckedCells(), 0u);
    }
}

TEST(CrossCheck, DivergenceAbortsWithoutKeepGoing)
{
    const Options options = parsedOptions({"--cross-check", "4"});
    SimRunner runner(options);
    EXPECT_THROW(
        runner.runGrid(
            1, 2, [](std::size_t, std::size_t) { return 1.0; },
            [](std::size_t, std::size_t) { return 1.5; }),
        InvariantViolation);
}

TEST(CrossCheck, NoReferenceMeansNoOp)
{
    const Options options = parsedOptions({"--cross-check", "8"});
    SimRunner runner(options);
    const auto cells = runner.runGrid(
        1, 2, [](std::size_t, std::size_t col) {
            return static_cast<double>(col);
        });
    EXPECT_EQ(cells[0][1], 1.0);
    EXPECT_EQ(runner.crossCheckedCells(), 0u);
}

// ---------------------------------------------------------------------
// --job-timeout watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, CancelsAStuckJobAsTimeout)
{
    const Options options = parsedOptions(
        {"--job-timeout", "0.2", "--keep-going", "1", "--jobs", "2"});
    SimRunner runner(options);
    std::vector<SimJob> batch;
    batch.push_back({"healthy", [] {}});
    batch.push_back({"stuck", [] {
                         // Heartbeats forever with CONSTANT progress:
                         // alive but not advancing, exactly what the
                         // watchdog must catch.
                         for (;;)
                             simHeartbeat(7);
                     }});
    runner.run(std::move(batch));
    ASSERT_EQ(runner.failures().size(), 1u);
    EXPECT_EQ(runner.failures()[0].label, "stuck");
    EXPECT_NE(runner.failures()[0].error.find("timeout"),
              std::string::npos);
    EXPECT_EQ(runner.timedOutJobs(), 1u);
}

TEST(Watchdog, ProgressingJobIsLeftAlone)
{
    const Options options = parsedOptions(
        {"--job-timeout", "0.15", "--keep-going", "1"});
    SimRunner runner(options);
    std::vector<SimJob> batch;
    batch.push_back(
        {"busy", [] {
             // Runs well past the timeout but keeps publishing new
             // progress values; the watchdog must not fire.
             const auto start = std::chrono::steady_clock::now();
             std::uint64_t progress = 0;
             while (std::chrono::steady_clock::now() - start <
                    std::chrono::milliseconds(400))
                 simHeartbeat(++progress);
         }});
    runner.run(std::move(batch));
    EXPECT_TRUE(runner.failures().empty());
    EXPECT_EQ(runner.timedOutJobs(), 0u);
}

TEST(Watchdog, HeartbeatIsANoOpOutsideJobs)
{
    // Models call simHeartbeat unconditionally; outside a watched job
    // it must be free and harmless.
    EXPECT_EQ(currentCancellationToken(), nullptr);
    EXPECT_NO_THROW(simHeartbeat(123));
}

// ---------------------------------------------------------------------
// Parse-time option-combination validation
// ---------------------------------------------------------------------

TEST(OptionValidation, ResumeRequiresResultStore)
{
    EXPECT_DEATH(parsedOptions({"--resume", "1"}),
                 "--resume 1 requires --result-store");
}

TEST(OptionValidation, ExplicitNonPositiveJobTimeoutRejected)
{
    EXPECT_DEATH(parsedOptions({"--job-timeout", "0"}),
                 "--job-timeout SEC must be positive");
    EXPECT_DEATH(parsedOptions({"--job-timeout", "-1"}),
                 "--job-timeout SEC must be positive");
    // The default (absent) 0 stays legal: watchdog simply off.
    EXPECT_NO_FATAL_FAILURE(parsedOptions({}));
}

TEST(OptionValidation, CrossCheckRefusesFaultInjection)
{
    EXPECT_DEATH(parsedOptions({"--cross-check", "2", "--fault-inject",
                                "job:1:throw"}),
                 "cannot run under --fault-inject");
    EXPECT_DEATH(parsedOptions({"--cross-check", "-3"}),
                 "--cross-check N must be >= 0");
}

TEST(OptionValidation, BadInvariantLevelRejectedAtParse)
{
    EXPECT_DEATH(parsedOptions({"--check-invariants", "paranoid"}),
                 "--check-invariants expects off, cheap or full");
}

// ---------------------------------------------------------------------
// Signed run manifests
// ---------------------------------------------------------------------

TEST(Manifest, WrittenNextToCsvAndChecksumsMatch)
{
    const std::string csv_path =
        "/tmp/vpsim-manifest-test-" + std::to_string(::getpid()) +
        ".csv";
    const std::string manifest_path = csv_path + ".manifest.json";
    std::remove(csv_path.c_str());
    std::remove(manifest_path.c_str());

    const Options options = parsedOptions(
        {"--csv", csv_path.c_str(), "--check-invariants", "full"});
    maybeWriteCsv(options, "test.fig", {"rowA"}, {"c1", "c2"},
                  {{0.25, 0.5}});

    std::ifstream manifest(manifest_path);
    ASSERT_TRUE(manifest.good()) << "manifest must be written";
    std::stringstream manifest_text;
    manifest_text << manifest.rdbuf();
    const std::string text = manifest_text.str();

    EXPECT_NE(text.find("\"schema\": \"vpsim-run-manifest 3\""),
              std::string::npos);
    EXPECT_EQ(text.find("salvage"), std::string::npos)
        << "schema 3 carries no trace-salvage fields";
    EXPECT_EQ(text.find("traceFormatVersion"), std::string::npos)
        << "figure benches read no trace file";
    EXPECT_NE(text.find("\"checkInvariants\": \"full\""),
              std::string::npos);
    EXPECT_NE(text.find("\"fingerprint\""), std::string::npos);
    EXPECT_NE(text.find("\"signature\": \"crc32:"), std::string::npos);

    // The recorded CRC must match the CSV's actual bytes.
    std::ifstream csv(csv_path, std::ios::binary);
    ASSERT_TRUE(csv.good());
    std::stringstream csv_bytes;
    csv_bytes << csv.rdbuf();
    const std::string data = csv_bytes.str();
    char expected[16];
    std::snprintf(expected, sizeof(expected), "%08x",
                  crc32(data.data(), data.size()));
    EXPECT_NE(text.find(std::string("\"csvCrc32\": \"") + expected),
              std::string::npos)
        << "manifest CRC must match the CSV on disk";

    std::remove(csv_path.c_str());
    std::remove(manifest_path.c_str());
}

TEST(Manifest, RewrittenAfterEveryAppend)
{
    const std::string csv_path =
        "/tmp/vpsim-manifest-append-" + std::to_string(::getpid()) +
        ".csv";
    const std::string manifest_path = csv_path + ".manifest.json";
    std::remove(csv_path.c_str());
    std::remove(manifest_path.c_str());

    const Options options = parsedOptions({"--csv", csv_path.c_str()});
    maybeWriteCsv(options, "fig.a", {"r"}, {"c"}, {{1.0}});
    std::ifstream first_file(manifest_path);
    std::stringstream first;
    first << first_file.rdbuf();
    maybeWriteCsv(options, "fig.b", {"r"}, {"c"}, {{2.0}});
    std::ifstream second_file(manifest_path);
    std::stringstream second;
    second << second_file.rdbuf();

    EXPECT_NE(first.str(), second.str())
        << "appending rows must refresh the manifest's checksum";

    std::remove(csv_path.c_str());
    std::remove(manifest_path.c_str());
}

} // namespace
} // namespace vpsim
