#include "core/reference_machine.hpp"

#include <algorithm>
#include <deque>
#include <span>

#include "common/logging.hpp"
#include "core/pipeline_components.hpp"
#include "core/speedup.hpp"

namespace vpsim
{

namespace
{

/** Phase-1 output: per-record prediction outcome of the producer. */
struct PredictionReplay
{
    std::vector<unsigned char> predicted;
    std::vector<unsigned char> correct;
    std::uint64_t made = 0;
    std::uint64_t correctCount = 0;
    std::uint64_t wrong = 0;
};

bool
inVpScope(VpScope scope, const TraceRecord &record)
{
    return scope == VpScope::AllInstructions ||
           record.instClass() == InstClass::Load;
}

/**
 * Replay the classified predictor over the whole trace, in program
 * order, recording each producer's outcome. Identical call sequence to
 * the primary model (predict + update per in-scope producer), but kept
 * separate from the scheduling pass.
 */
PredictionReplay
replayPredictions(TraceSpan records, const IdealMachineConfig &config)
{
    PredictionReplay replay;
    replay.predicted.assign(records.size(), 0);
    replay.correct.assign(records.size(), 0);
    if (!config.useValuePrediction)
        return replay;

    std::unique_ptr<ClassifiedPredictor> predictor;
    if (!config.perfectValuePrediction) {
        predictor = makeClassifiedPredictor(
            config.predictorKind, config.tableCapacity,
            config.counterBits, config.missPolicy);
    }

    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &record = records[i];
        if (!record.producesValue() || !inVpScope(config.vpScope, record))
            continue;
        if (config.perfectValuePrediction) {
            replay.predicted[i] = 1;
            replay.correct[i] = 1;
            ++replay.made;
            ++replay.correctCount;
            continue;
        }
        const ClassifiedPrediction prediction =
            predictor->predict(record.pc);
        replay.predicted[i] = prediction.predicted ? 1 : 0;
        replay.correct[i] = prediction.predicted &&
                                    prediction.value == record.result
                                ? 1
                                : 0;
        predictor->update(record.pc, prediction, record.result);
    }

    if (predictor) {
        replay.made = predictor->predictionsMade();
        replay.correctCount = predictor->predictionsCorrect();
        replay.wrong = predictor->predictionsWrong();
    }
    return replay;
}

} // namespace

IdealMachineResult
runReferenceIdealMachine(TraceSpan records,
                         const IdealMachineConfig &config)
{
    fatalIf(config.fetchRate == 0, "fetch rate must be positive");
    fatalIf(config.windowSize == 0, "window size must be positive");

    IdealMachineResult result;
    result.instructions = records.size();
    if (records.empty())
        return result;

    const PredictionReplay replay = replayPredictions(records, config);
    result.predictionsMade = replay.made;
    result.predictionsCorrect = replay.correctCount;
    result.predictionsWrong = replay.wrong;

    // Phase 2: schedule from plain arrays. exec[i] is instruction i's
    // execute cycle; writerOf[reg] the index of the register's last
    // value-producing writer so far (or npos).
    constexpr std::size_t npos = ~std::size_t{0};
    std::vector<Cycle> exec(records.size(), 0);
    std::vector<std::size_t> writerOf(registerFileSize, npos);

    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &record = records[i];
        const Cycle fetch_cycle =
            static_cast<Cycle>(i / config.fetchRate) + 1;
        Cycle earliest = fetch_cycle + config.frontendLatency;
        if (i >= config.windowSize)
            earliest = std::max(earliest, exec[i - config.windowSize] + 1);

        // Gather source uses: ready time of the real value plus the
        // producer's prediction outcome.
        Cycle ready[2];
        int kind[2]; // 0 = not predicted, 1 = correct, 2 = wrong
        unsigned num_uses = 0;
        for (const RegIndex reg : {record.rs1, record.rs2}) {
            if (reg == invalidReg || reg == 0)
                continue;
            const std::size_t producer = writerOf[reg];
            if (producer == npos)
                continue;
            ready[num_uses] = exec[producer] + 1;
            kind[num_uses] = 0;
            if (config.useValuePrediction && replay.predicted[producer])
                kind[num_uses] = replay.correct[producer] ? 1 : 2;
            ++num_uses;
        }

        for (unsigned u = 0; u < num_uses; ++u) {
            if (ready[u] > earliest)
                ++result.stallingUses;
        }

        // Issue waits for non-predicted operands only.
        Cycle issue = earliest;
        for (unsigned u = 0; u < num_uses; ++u) {
            if (kind[u] == 0)
                issue = std::max(issue, ready[u]);
        }

        // Wrong speculations reissue in ascending ready order; a wrong
        // operand whose real value is already available by the current
        // completion time costs nothing.
        Cycle done = issue;
        if (num_uses == 2 && kind[0] == 2 && kind[1] == 2 &&
            ready[0] > ready[1]) {
            std::swap(ready[0], ready[1]);
        }
        for (unsigned u = 0; u < num_uses; ++u) {
            if (kind[u] == 2 && ready[u] > done)
                done = ready[u] + config.vpPenalty;
        }

        for (unsigned u = 0; u < num_uses; ++u) {
            if (kind[u] != 1)
                continue;
            ++result.correctlyPredictedUses;
            if (ready[u] > done)
                ++result.usefulPredictions;
        }

        exec[i] = done;
        if (record.producesValue())
            writerOf[record.rd] = i;
    }

    result.cycles = *std::max_element(exec.begin(), exec.end());
    result.ipc = static_cast<double>(result.instructions) /
                 static_cast<double>(result.cycles);
    return result;
}

double
referenceIdealVpSpeedup(TraceSpan records,
                        const IdealMachineConfig &config)
{
    IdealMachineConfig base = config;
    base.useValuePrediction = false;
    IdealMachineConfig vp = config;
    vp.useValuePrediction = true;

    const IdealMachineResult base_result =
        runReferenceIdealMachine(records, base);
    const IdealMachineResult vp_result =
        runReferenceIdealMachine(records, vp);
    if (vp_result.cycles == 0)
        return 1.0;
    return static_cast<double>(base_result.cycles) /
           static_cast<double>(vp_result.cycles);
}

namespace
{

/** One in-flight instruction of the reference pipeline. */
struct RefEntry
{
    Addr pc = 0;
    Value result = 0;
    bool wrongPath = false;
    bool mispredictedBranch = false;
    Cycle fetchCycle = 0;
    bool issued = false;
    Cycle issueCycle = 0;
    bool executed = false;
    Cycle execCycle = 0;
    bool vpPredicted = false;
    bool vpCorrect = false;
    bool vpTracked = false;
    ClassifiedPrediction vpPrediction;

    /** Correct path only: the record's index in program order. */
    std::size_t index = 0;

    /** A source operand whose producer was in flight at dispatch. */
    struct Source
    {
        std::uint64_t producer = 0; //!< the producer's dispatch number
        bool known = false;         //!< readyAt has been captured
        Cycle readyAt = 0;
        bool wrongSpeculation = false;
    };
    std::vector<Source> sources;
};

/** When a correct-path record dispatched and executed, and its prediction. */
struct RefTiming
{
    Cycle dispatch = 0;
    Cycle exec = 0;
    bool predictedCorrectly = false;
};

/**
 * Count the operand uses of a finished schedule, in program order. A use
 * stalls when its real value is ready after the consumer's earliest
 * issue, dispatch + max(frontendLatency, 1) (the scan that issues runs
 * before the cycle's fetch); a correctly predicted use is useful when
 * its real value is ready after the consumer executes.
 */
void
countOperandUses(TraceSpan records, const std::vector<RefTiming> &timing,
                 const PipelineConfig &config, PipelineResult &result)
{
    const Cycle earliestIssue = std::max(config.frontendLatency, 1u);
    constexpr std::size_t none = ~std::size_t{0};
    std::vector<std::size_t> writerOf(registerFileSize, none);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &record = records[i];
        for (const RegIndex reg : {record.rs1, record.rs2}) {
            if (reg == invalidReg || reg == 0 || writerOf[reg] == none)
                continue;
            const RefTiming &producer = timing[writerOf[reg]];
            const Cycle ready = producer.exec + 1;
            if (ready > timing[i].dispatch + earliestIssue)
                ++result.stallingUses;
            if (producer.predictedCorrectly) {
                ++result.correctlyPredictedUses;
                if (ready > timing[i].exec)
                    ++result.usefulPredictions;
            }
        }
        if (record.producesValue())
            writerOf[record.rd] = i;
    }
}

} // namespace

PipelineResult
runReferencePipelineMachine(TraceSpan records, const PipelineConfig &config)
{
    checkPipelineConfig(config);
    PipelineResult result;
    result.instructions = records.size();
    if (records.empty())
        return result;

    PipelineComponents parts(records, config);
    TraceFetchBase &engine = parts.engine();
    ClassifiedPredictor *plain = parts.plainPredictor();
    InterleavedVpTable *table = parts.vpTable();
    const bool vpOn = config.useValuePrediction;
    const bool perfect = vpOn && config.perfectValuePrediction;
    const bool retireTraining =
        config.vpUpdateTiming == VpUpdateTiming::Retire;
    const std::size_t robCapacity =
        static_cast<std::size_t>(config.windowSize) * 8;

    // The in-flight instructions in program order. window[i] has
    // dispatch number firstNumber + i; a squash pops the back, so
    // numbers are reused exactly like the production ring's slots.
    std::deque<RefEntry> window;
    std::uint64_t firstNumber = 0;
    constexpr std::uint64_t none = ~std::uint64_t{0};
    std::vector<std::uint64_t> writerOf(registerFileSize, none);
    const auto inFlight = [&](std::uint64_t number) {
        return number != none && number >= firstNumber &&
               number < firstNumber + window.size();
    };

    std::vector<RefTiming> timing(records.size());
    std::size_t dispatched = 0;

    Cycle now = 0;
    Cycle lastCommit = 0;
    std::uint64_t committed = 0;
    Cycle idle = 0;
    while (committed < records.size()) {
        ++now;
        bool progress = false;

        // Commit the executed prefix, training a retire-time predictor.
        while (!window.empty() && window.front().executed &&
               window.front().execCycle < now) {
            const RefEntry &head = window.front();
            panicIf(head.wrongPath, "reference: wrong path committed");
            if (head.vpTracked && table != nullptr)
                table->update(head.pc, head.vpPrediction, head.result);
            else if (head.vpTracked)
                plain->update(head.pc, head.vpPrediction, head.result);
            window.pop_front();
            ++firstNumber;
            ++committed;
            lastCommit = now;
            progress = true;
        }

        // Scan the whole window oldest first: capture ready times, then
        // issue (width-limited) and finish what can.
        unsigned issued = 0;
        for (std::size_t i = 0; i < window.size(); ++i) {
            RefEntry &entry = window[i];
            if (entry.executed)
                continue;
            bool operandsReady = true;
            bool repaired = true;
            for (RefEntry::Source &source : entry.sources) {
                if (!source.known) {
                    panicIf(!inFlight(source.producer),
                            "reference: producer left before its consumer "
                            "saw it execute");
                    const RefEntry &producer =
                        window[source.producer - firstNumber];
                    if (producer.executed) {
                        source.known = true;
                        source.readyAt = producer.execCycle + 1;
                    }
                }
                const bool ready = source.known && source.readyAt <= now;
                if (!source.wrongSpeculation && !ready)
                    operandsReady = false;
            }
            if (!entry.issued) {
                if (!operandsReady || issued == config.issueWidth ||
                    now < entry.fetchCycle + config.frontendLatency)
                    continue;
                entry.issued = true;
                entry.issueCycle = now;
                ++issued;
                progress = true;
            }
            for (const RefEntry::Source &source : entry.sources) {
                if (!source.wrongSpeculation)
                    continue;
                if (!source.known) {
                    repaired = false;
                    continue;
                }
                const Cycle reissue = source.readyAt <= entry.issueCycle
                                          ? source.readyAt
                                          : source.readyAt + config.vpPenalty;
                if (reissue > now)
                    repaired = false;
            }
            if (!repaired)
                continue;
            entry.executed = true;
            entry.execCycle = now;
            if (!entry.wrongPath)
                timing[entry.index].exec = now;
            progress = true;
            if (entry.mispredictedBranch) {
                engine.branchResolved(entry.index, now);
                while (window.size() > i + 1) {
                    panicIf(!window.back().wrongPath,
                            "reference: squashed a correct-path entry");
                    window.pop_back();
                }
                break;
            }
        }

        // Fetch into the free window slots, bounded by the ROB.
        std::size_t waiting = 0;
        for (const RefEntry &entry : window)
            waiting += entry.executed ? 0 : 1;
        if (!engine.done() && waiting < config.windowSize &&
            window.size() < robCapacity) {
            const std::size_t budget = std::min<std::size_t>(
                {config.issueWidth, config.windowSize - waiting,
                 robCapacity - window.size()});
            const FetchBundle bundle =
                engine.fetch(now, static_cast<unsigned>(budget));
            panicIf(bundle.records.size() > budget,
                    "reference: front end overfilled its budget");

            std::vector<Addr> lookupPcs;
            for (const TraceRecord &record : bundle.records) {
                if (record.producesValue() &&
                    inVpScope(config.vpScope, record))
                    lookupPcs.push_back(record.pc);
            }
            std::vector<VpGrant> grants;
            if (table != nullptr) {
                const std::span<const VpGrant> granted =
                    table->processBundle(lookupPcs);
                grants.assign(granted.begin(), granted.end());
            }

            std::size_t nextGrant = 0;
            for (const TraceRecord &record : bundle.records) {
                RefEntry entry;
                entry.pc = record.pc;
                entry.result = record.result;
                entry.wrongPath = bundle.wrongPath;
                entry.mispredictedBranch = bundle.endsInMispredict &&
                                           &record == &bundle.records.back();
                entry.fetchCycle = now;
                const bool looksUp = vpOn && record.producesValue() &&
                                     inVpScope(config.vpScope, record);

                if (entry.wrongPath) {
                    // Pollute the predictor, then drop the lookup.
                    if (looksUp && table != nullptr) {
                        if (grants[nextGrant++].granted)
                            table->abandon(record.pc);
                    } else if (looksUp && plain != nullptr) {
                        plain->predict(record.pc);
                        plain->abandon(record.pc);
                    }
                    window.push_back(entry);
                    progress = true;
                    continue;
                }

                if (looksUp && perfect) {
                    entry.vpPredicted = true;
                    entry.vpCorrect = true;
                    ++result.vpPredictionsMade;
                    ++result.vpPredictionsCorrect;
                } else if (looksUp) {
                    bool granted = true;
                    if (table != nullptr) {
                        const VpGrant &grant = grants[nextGrant++];
                        granted = grant.granted;
                        entry.vpPrediction = grant.prediction;
                    } else {
                        entry.vpPrediction = plain->predict(record.pc);
                    }
                    if (granted) {
                        entry.vpPredicted = entry.vpPrediction.predicted;
                        entry.vpCorrect = entry.vpPredicted &&
                                          entry.vpPrediction.value ==
                                              record.result;
                        if (retireTraining) {
                            entry.vpTracked = true;
                        } else if (table != nullptr) {
                            table->update(record.pc, entry.vpPrediction,
                                          record.result);
                        } else {
                            plain->update(record.pc, entry.vpPrediction,
                                          record.result);
                        }
                    }
                }

                for (const RegIndex reg : {record.rs1, record.rs2}) {
                    if (reg == invalidReg || reg == 0 ||
                        !inFlight(writerOf[reg]))
                        continue;
                    const RefEntry &producer =
                        window[writerOf[reg] - firstNumber];
                    if (producer.vpPredicted && producer.vpCorrect)
                        continue;
                    RefEntry::Source source;
                    source.producer = writerOf[reg];
                    source.wrongSpeculation = producer.vpPredicted;
                    // Capture now: the producer may commit before the
                    // next cycle's scan reaches this entry.
                    source.known = producer.executed;
                    source.readyAt = producer.execCycle + 1;
                    entry.sources.push_back(source);
                }
                if (record.producesValue())
                    writerOf[record.rd] = firstNumber + window.size();
                entry.index = dispatched++;
                timing[entry.index] = {now, 0,
                                       entry.vpPredicted && entry.vpCorrect};
                window.push_back(std::move(entry));
                progress = true;
            }
        }

        idle = progress ? 0 : idle + 1;
        panicIf(idle > 1000000, "reference pipeline deadlocked");
    }

    result.cycles = lastCommit;
    result.ipc = static_cast<double>(result.instructions) /
                 static_cast<double>(result.cycles);
    parts.collectStats(result);
    countOperandUses(records, timing, config, result);
    return result;
}

double
referencePipelineVpSpeedup(TraceSpan records, const PipelineConfig &config)
{
    PipelineConfig base = config;
    base.useValuePrediction = false;
    PipelineConfig vp = config;
    vp.useValuePrediction = true;
    return vpSpeedup(runReferencePipelineMachine(records, base).cycles,
                     runReferencePipelineMachine(records, vp).cycles);
}

} // namespace vpsim
