#include "core/ideal_machine.hpp"

#include <algorithm>
#include <sstream>
#include <type_traits>

#include "common/cancellation.hpp"
#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "core/speedup.hpp"
#include "core/timing_kernel.hpp"

namespace vpsim
{

namespace
{

/** Value prediction off. */
struct NoVp
{
    VpOutcome predictAndTrain(Addr, Value) const { return {}; }
};

/** Perfect value prediction: every in-scope producer, correctly. */
struct PerfectVp
{
    VpOutcome predictAndTrain(Addr, Value) const { return {true, true}; }
};

/**
 * The span-iterating ideal-machine engine.
 *
 * All loop state lives here so the per-block worker can be specialized
 * at compile time: processBlock<FullChecks, KeepSchedule> is
 * instantiated per (deep-check, schedule, value prediction: NoVp,
 * PerfectVp or a classified predictor's kernel) combination and
 * dispatched once per delivered block, so the per-instruction path of a
 * plain baseline run
 * carries no dead prediction branches and no invariant polling at all.
 * Record index, window-ring slot (== i % windowSize) and fetch cycle
 * (== i / fetchRate + 1) are carried incrementally across blocks: the
 * batched loop pays no per-record divide or modulo.
 */
struct IdealEngine
{
    const IdealMachineConfig &config;
    IdealMachineResult &result;
    const bool keepSchedule;

    std::vector<RegisterRecord> registers;
    /** Ring buffer of the last windowSize execute cycles. */
    std::vector<Cycle> windowExec;

    Cycle maxExec = 0;
    std::uint64_t insts = 0;
    std::size_t windowSlot = 0;
    Cycle fetchCycle = 1;
    unsigned fetchSlot = 0;

    IdealEngine(const IdealMachineConfig &machine_config,
                IdealMachineResult &machine_result, bool keep_schedule)
        : config(machine_config), result(machine_result),
          keepSchedule(keep_schedule), registers(registerFileSize),
          windowExec(machine_config.windowSize, 0)
    {
    }

    /** Run @p block through this run's processBlock instantiation. */
    template <typename Vp>
    void
    dispatchBlock(TraceSpan block, bool full_checks, Vp &vp)
    {
        if (full_checks)
            keepSchedule ? processBlock<true, true>(block, vp)
                         : processBlock<true, false>(block, vp);
        else
            keepSchedule ? processBlock<false, true>(block, vp)
                         : processBlock<false, false>(block, vp);
    }

    template <bool FullChecks, bool KeepSchedule, typename Vp>
    void
    processBlock(TraceSpan block, Vp &vp)
    {
        constexpr bool use_vp = !std::is_same_v<Vp, NoVp>;
        const unsigned window_size = config.windowSize;
        const unsigned fetch_rate = config.fetchRate;
        const Cycle frontend_latency = config.frontendLatency;
        const Cycle vp_penalty = config.vpPenalty;
        RegisterRecord *const regs = registers.data();
        Cycle *const window = windowExec.data();

        // Loop state lives in locals for the duration of the block and
        // is written back once at the end: in the <false, false, false>
        // instantiation the inner loop then makes no opaque calls at
        // all, so everything below stays in registers.
        std::uint64_t i = this->insts;
        std::size_t window_slot = this->windowSlot;
        Cycle fetch_cycle = this->fetchCycle;
        unsigned fetch_slot = this->fetchSlot;
        Cycle max_exec = this->maxExec;
        OperandUses uses;
        std::uint64_t perfect_predictions = 0;

        const std::size_t block_size = block.size();
        for (std::size_t k = 0; k < block_size; ++k) {
        Cycle earliest = fetch_cycle + frontend_latency;

        // Window constraint: the slot of instruction i - windowSize
        // must have freed (at its execute) before i can execute.
        if (i >= window_size) {
            earliest = std::max(earliest, window[window_slot] + 1);
        }

        const auto predict_own = [&] {
            if (!use_vp || !vpPredicts(config.vpScope, block[k]))
                return VpOutcome{};
            perfect_predictions += std::is_same_v<Vp, PerfectVp> ? 1 : 0;
            return vp.predictAndTrain(block[k].pc, block[k].result);
        };
        const Cycle exec = timeInstruction<AscendingReissue, use_vp>(
            regs, block[k], earliest, vp_penalty, 1, UnboundedIssue{},
            predict_own, uses);
        if (FullChecks) {
            // Deep audit: the slot being recycled must have freed
            // before this execute (re-reads the ring buffer the
            // scheduler used, so a future refactor that drops the
            // window bound is caught).
            if (i >= window_size) {
                checkInvariant(
                    InvariantLevel::Full,
                    exec >= window[window_slot] + 1,
                    "ideal.window_slot_reuse", [&] {
                        return "inst " + std::to_string(i) +
                               " executes in " + std::to_string(exec) +
                               " but its window slot frees in " +
                               std::to_string(window[window_slot]);
                    });
            }
            checkInvariant(InvariantLevel::Full,
                           exec >= fetch_cycle + frontend_latency,
                           "ideal.frontend_latency", [&] {
                               return "inst " + std::to_string(i) +
                                      " executes in " +
                                      std::to_string(exec) +
                                      " before fetch " +
                                      std::to_string(fetch_cycle) +
                                      " + frontend latency";
                           });
        }
        window[window_slot] = exec;
        if (KeepSchedule)
            result.execCycle.push_back(exec);
        max_exec = std::max(max_exec, exec);

        ++i;
        if (++window_slot == window_size)
            window_slot = 0;
        if (++fetch_slot == fetch_rate) {
            fetch_slot = 0;
            ++fetch_cycle;
        }
        }

        this->insts = i;
        this->windowSlot = window_slot;
        this->fetchCycle = fetch_cycle;
        this->fetchSlot = fetch_slot;
        this->maxExec = max_exec;
        result.stallingUses += uses.stallingUses;
        result.correctlyPredictedUses += uses.correctlyPredictedUses;
        result.usefulPredictions += uses.usefulPredictions;
        result.predictionsMade += perfect_predictions;
        result.predictionsCorrect += perfect_predictions;
    }
};

} // namespace

IdealMachineResult
runIdealMachine(TraceSource &source, const IdealMachineConfig &config,
                bool keep_schedule)
{
    fatalIf(config.fetchRate == 0, "fetch rate must be positive");
    fatalIf(config.windowSize == 0, "window size must be positive");

    IdealMachineResult result;

    std::unique_ptr<ClassifiedPredictor> predictor;
    if (config.useValuePrediction && !config.perfectValuePrediction) {
        predictor = makeClassifiedPredictor(
            config.predictorKind, config.tableCapacity,
            config.counterBits, config.missPolicy);
    }

    IdealEngine engine(config, result, keep_schedule);

    source.reset();
    const auto run_blocks = [&](auto &vp) {
        TraceSpan block;
        while (source.nextBlock(block)) {
            // Progress heartbeat for the --job-timeout watchdog and the
            // self-check level poll, hoisted to block granularity: one
            // thread-local store and one relaxed atomic load per <= 4096
            // records instead of per instruction.
            simHeartbeat(engine.insts);
            engine.dispatchBlock(block,
                                 invariantsActive(InvariantLevel::Full), vp);
        }
    };
    // The predictor kernel is chosen once per run.
    if (predictor) {
        predictor->withKernel(run_blocks);
    } else if (config.useValuePrediction) {
        PerfectVp perfect;
        run_blocks(perfect);
    } else {
        NoVp none;
        run_blocks(none);
    }

    result.instructions = engine.insts;
    if (engine.insts == 0)
        return result;

    const Cycle max_exec = engine.maxExec;
    if (predictor) {
        result.predictionsMade = predictor->predictionsMade();
        result.predictionsCorrect = predictor->predictionsCorrect();
        result.predictionsWrong = predictor->predictionsWrong();
    }

    result.cycles = max_exec;
    result.ipc = static_cast<double>(result.instructions) /
                 static_cast<double>(result.cycles);

    // Always-on O(1) audits: the limit-study bound IPC <= fetch rate
    // (Mitrevski/Gusev-style validated-bound methodology) and the
    // predictor's lookup bookkeeping balance.
    checkInvariant(InvariantLevel::Cheap,
                   result.instructions <=
                       result.cycles * config.fetchRate,
                   "ideal.ipc_le_fetch_rate", [&] {
                       return std::to_string(result.instructions) +
                              " insts in " +
                              std::to_string(result.cycles) +
                              " cycles exceeds fetch rate " +
                              std::to_string(config.fetchRate);
                   });
    checkInvariant(InvariantLevel::Cheap,
                   result.predictionsMade ==
                       result.predictionsCorrect +
                           result.predictionsWrong,
                   "vp.hit_miss_balance", [&] {
                       return std::to_string(result.predictionsMade) +
                              " made != " +
                              std::to_string(result.predictionsCorrect) +
                              " correct + " +
                              std::to_string(result.predictionsWrong) +
                              " wrong";
                   });
    checkInvariant(InvariantLevel::Cheap,
                   result.usefulPredictions <=
                       result.correctlyPredictedUses,
                   "ideal.useful_le_correct_uses", [&] {
                       return std::to_string(result.usefulPredictions) +
                              " useful > " +
                              std::to_string(
                                  result.correctlyPredictedUses) +
                              " correctly predicted uses";
                   });
    return result;
}

IdealMachineResult
runIdealMachine(const std::vector<TraceRecord> &records,
                const IdealMachineConfig &config, bool keep_schedule)
{
    BorrowedTraceSource source{TraceSpan(records)};
    return runIdealMachine(source, config, keep_schedule);
}

std::string
IdealMachineResult::report() const
{
    std::ostringstream oss;
    oss << "ideal machine: " << instructions << " insts in " << cycles
        << " cycles (IPC " << ipc << ")\n";
    if (predictionsMade > 0) {
        oss << "  value predictions: " << predictionsMade << " made, "
            << predictionsCorrect << " correct, " << predictionsWrong
            << " wrong, " << usefulPredictions
            << " actually removed a stall\n";
    }
    return oss.str();
}

double
idealVpSpeedup(TraceSource &source, const IdealMachineConfig &config)
{
    IdealMachineConfig base = config;
    base.useValuePrediction = false;
    IdealMachineConfig vp = config;
    vp.useValuePrediction = true;

    const IdealMachineResult base_result = runIdealMachine(source, base);
    const IdealMachineResult vp_result = runIdealMachine(source, vp);
    return vpSpeedup(base_result.cycles, vp_result.cycles);
}

double
idealVpSpeedup(const std::vector<TraceRecord> &records,
               const IdealMachineConfig &config)
{
    BorrowedTraceSource source{TraceSpan(records)};
    return idealVpSpeedup(source, config);
}

} // namespace vpsim
