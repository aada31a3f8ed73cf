#include "core/ideal_machine.hpp"

#include <algorithm>
#include <sstream>

#include "common/cancellation.hpp"
#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "isa/instruction.hpp"

namespace vpsim
{

namespace
{

/**
 * The span-iterating ideal-machine engine.
 *
 * All loop state lives here so the per-block worker can be specialized
 * at compile time: processBlock<UseVp, FullChecks> is instantiated per
 * (value prediction, deep-check) combination and dispatched once per
 * delivered block, so the per-instruction path of a plain baseline run
 * carries no dead prediction branches and no invariant polling at all.
 * Record index, window-ring slot (== i % windowSize) and fetch cycle
 * (== i / fetchRate + 1) are carried incrementally across blocks: the
 * batched loop pays no per-record divide or modulo.
 */
struct IdealEngine
{
    /** What consumers need to know about a register's last writer. */
    struct Writer
    {
        Cycle execCycle = 0;
        bool exists = false;
        bool predicted = false;
        bool correct = false;
    };

    const IdealMachineConfig &config;
    IdealMachineResult &result;
    const bool keepSchedule;
    ClassifiedPredictor *predictor = nullptr;

    std::vector<Writer> lastWriter;
    /** Ring buffer of the last windowSize execute cycles. */
    std::vector<Cycle> windowExec;

    Cycle maxExec = 0;
    std::uint64_t insts = 0;
    std::size_t windowSlot = 0;
    Cycle fetchCycle = 1;
    unsigned fetchSlot = 0;

    /**
     * The writer table spans the full RegIndex range so operand lookup
     * can index by raw register byte with no validity pre-check:
     * producesValue() never marks r0 or invalidReg as written, so
     * those entries stay !exists forever and read as "no producer".
     */
    static constexpr std::size_t writerTableSize = 256;

    IdealEngine(const IdealMachineConfig &machine_config,
                IdealMachineResult &machine_result, bool keep_schedule)
        : config(machine_config), result(machine_result),
          keepSchedule(keep_schedule), lastWriter(writerTableSize),
          windowExec(machine_config.windowSize, 0)
    {
    }

    void
    dispatchBlock(TraceSpan block, bool full_checks)
    {
        if (config.useValuePrediction) {
            if (full_checks)
                keepSchedule ? processBlock<true, true, true>(block)
                             : processBlock<true, true, false>(block);
            else
                keepSchedule ? processBlock<true, false, true>(block)
                             : processBlock<true, false, false>(block);
        } else {
            if (full_checks)
                keepSchedule ? processBlock<false, true, true>(block)
                             : processBlock<false, true, false>(block);
            else
                keepSchedule ? processBlock<false, false, true>(block)
                             : processBlock<false, false, false>(block);
        }
    }

    template <bool UseVp, bool FullChecks, bool KeepSchedule>
    void
    processBlock(TraceSpan block)
    {
        const unsigned window_size = config.windowSize;
        const unsigned fetch_rate = config.fetchRate;
        const Cycle frontend_latency = config.frontendLatency;
        const Cycle vp_penalty = config.vpPenalty;
        Writer *const writers = lastWriter.data();
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
        std::uint64_t stalling_uses = 0;
        std::uint64_t correctly_predicted_uses = 0;
        std::uint64_t useful_predictions = 0;
        std::uint64_t perfect_predictions = 0;

        const std::size_t block_size = block.size();
        for (std::size_t k = 0; k < block_size; ++k) {
        Cycle earliest = fetch_cycle + frontend_latency;

        // Window constraint: the slot of instruction i - windowSize
        // must have freed (at its execute) before i can execute.
        if (i >= window_size) {
            earliest = std::max(earliest, window[window_slot] + 1);
        }

        // Operand constraints. A consumer issues as soon as its
        // non-predicted operands are ready (predicted operands impose no
        // issue constraint: the consumer speculates on the predicted
        // value). An operand whose prediction was WRONG only costs the
        // reissue penalty if the consumer actually speculated on it,
        // i.e. if the real value was not yet available at issue time —
        // when the consumer issues late anyway, it reads the real value
        // and the prediction is merely useless, exactly the paper's
        // "the prediction becomes useless" case.
        //
        // Everything below is straight-line select arithmetic, not
        // branches: whether an operand was predicted / correct flips
        // with the simulated values, so a branchy encoding pays a
        // branch misprediction per dependent instruction. A missing
        // operand (no writer, r0, invalid) reads as ready == 0, which
        // every max/compare treats as "imposes nothing".
        const Writer &wr1 = writers[block[k].rs1];
        const Writer &wr2 = writers[block[k].rs2];
        const Cycle ready1 = wr1.exists ? wr1.execCycle + 1 : 0;
        const Cycle ready2 = wr2.exists ? wr2.execCycle + 1 : 0;
        stalling_uses += ready1 > earliest ? 1 : 0;
        stalling_uses += ready2 > earliest ? 1 : 0;

        // Issue: non-predicted operands bind. Completion: wrong
        // speculations reissue after the real value, in ascending
        // ready order (a later wrong operand sees the delay already
        // caused by an earlier one); an operand whose real value
        // arrived by the current execute never speculated, so it
        // imposes nothing.
        Cycle issue = earliest;
        Cycle exec;
        if constexpr (UseVp) {
            // 0 = binds at issue, 1 = predicted correct, 2 = wrong.
            const unsigned kind1 =
                (wr1.exists && wr1.predicted) ? (wr1.correct ? 1u : 2u)
                                              : 0u;
            const unsigned kind2 =
                (wr2.exists && wr2.predicted) ? (wr2.correct ? 1u : 2u)
                                              : 0u;
            issue = std::max(issue, kind1 == 0 ? ready1 : Cycle{0});
            issue = std::max(issue, kind2 == 0 ? ready2 : Cycle{0});
            exec = issue;
            const Cycle wrong1 = kind1 == 2 ? ready1 : Cycle{0};
            const Cycle wrong2 = kind2 == 2 ? ready2 : Cycle{0};
            const Cycle lo = std::min(wrong1, wrong2);
            const Cycle hi = std::max(wrong1, wrong2);
            exec = lo > exec ? lo + vp_penalty : exec;
            exec = hi > exec ? hi + vp_penalty : exec;
            // A correct prediction was useful when the operand would
            // otherwise have delayed the consumer past its actual
            // execute.
            correctly_predicted_uses +=
                (kind1 == 1 ? 1u : 0u) + (kind2 == 1 ? 1u : 0u);
            useful_predictions += (kind1 == 1 && ready1 > exec) ? 1 : 0;
            useful_predictions += (kind2 == 1 && ready2 > exec) ? 1 : 0;
        } else {
            issue = std::max(issue, ready1);
            issue = std::max(issue, ready2);
            exec = issue;
        }
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

        // Record this instruction as the new last writer of rd, with
        // its own prediction outcome for downstream consumers.
        const OpCode op = block[k].op;
        const RegIndex rd = block[k].rd;
        const bool produces_value =
            writesDest(op) && rd != invalidReg && rd != 0;
        if (produces_value) {
            Writer writer;
            writer.exists = true;
            writer.execCycle = exec;
            if (UseVp) {
                const bool in_scope =
                    config.vpScope == VpScope::AllInstructions ||
                    instClassOf(op) == InstClass::Load;
                if (in_scope) {
                    if (config.perfectValuePrediction) {
                        writer.predicted = true;
                        writer.correct = true;
                        ++perfect_predictions;
                    } else {
                        const Value actual = block[k].result;
                        const ClassifiedPrediction prediction =
                            predictor->predictAndTrain(block[k].pc,
                                                       actual);
                        writer.predicted = prediction.predicted;
                        writer.correct = prediction.predicted &&
                                         prediction.value == actual;
                    }
                }
            }
            writers[rd] = writer;
        }

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
        result.stallingUses += stalling_uses;
        result.correctlyPredictedUses += correctly_predicted_uses;
        result.usefulPredictions += useful_predictions;
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
    engine.predictor = predictor.get();

    source.reset();
    TraceSpan block;
    while (source.nextBlock(block)) {
        // Progress heartbeat for the --job-timeout watchdog and the
        // self-check level poll, hoisted to block granularity: one
        // thread-local store and one relaxed atomic load per <= 4096
        // records instead of per instruction.
        simHeartbeat(engine.insts);
        engine.dispatchBlock(block, invariantsActive(InvariantLevel::Full));
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
    if (vp_result.cycles == 0)
        return 1.0;
    return static_cast<double>(base_result.cycles) /
           static_cast<double>(vp_result.cycles);
}

double
idealVpSpeedup(const std::vector<TraceRecord> &records,
               const IdealMachineConfig &config)
{
    BorrowedTraceSource source{TraceSpan(records)};
    return idealVpSpeedup(source, config);
}

} // namespace vpsim
