#include "core/pipeline_machine.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <span>

#include "common/cancellation.hpp"
#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "core/pipeline_components.hpp"
#include "core/speedup.hpp"
#include "core/timing_kernel.hpp"

namespace vpsim
{

namespace
{

/**
 * Cycles from a producer's execute to a consumer's use of the real
 * value. -DVPSIM_MUTATION=pipeline-late-wakeup adds one, a scheduling
 * bug only the reference pipeline can see (scripts/mutation_smoke.sh).
 */
#ifdef VPSIM_MUTATION_PIPELINE_LATE_WAKEUP
constexpr Cycle wakeLatency = 2;
#else
constexpr Cycle wakeLatency = 1;
#endif

/** One dispatched, uncommitted instruction: a reorder-buffer entry. */
struct InFlight
{
    /** Cycle its window slot frees: execute, or a bubble's squash. */
    Cycle depart;
    /** Commit cycle; wrongPathCommit for a bubble, which never commits. */
    Cycle commit;
};
constexpr Cycle wrongPathCommit = 0;
constexpr Cycle noPendingBranch = ~Cycle{0};

/** A retire-time value-predictor update, owed at its entry's commit. */
struct RetireUpdate
{
    bool tracked = false;
    Addr pc = 0;
    Value result = 0;
    ClassifiedPrediction prediction;
};

/**
 * Which value-prediction flavour this run uses. The scheduling loop is
 * instantiated once per flavour so every per-instruction "which
 * predictor / is it perfect / is prediction even on" test is resolved
 * at compile time instead of being re-asked for each dispatched
 * instruction (the same de-virtualization the ideal machine's
 * processBlock<> applies; see docs/PERF.md).
 */
enum class VpPath
{
    None,    //!< value prediction off
    Perfect, //!< oracle predictions, no tables
    Plain,   //!< ClassifiedPredictor, unconstrained ports
    Table,   //!< §4 interleaved banked table in front of the predictor
};

/** The predictor kernel of the paths that have none (all but Plain). */
struct NoKernel
{
};

/**
 * The cycle loop of the Section 5 machine, specialized per VpPath and,
 * on the Plain path, per raw predictor: @p kernel is the classified
 * predictor's inline kernel (ClassifiedPredictor::Kernel).
 *
 * Issue is oldest first, so it is causal in program order: a younger
 * instruction never takes an issue slot an older one could use, and a
 * resolving mispredicted branch cuts off only younger, wrong-path
 * entries. When an instruction dispatches, every older one already has
 * its issue, execute and commit cycles fixed, so dispatch computes the
 * new one's on the spot, in O(1) (docs/PERF.md, "The Section 5
 * pipeline: a program-order recurrence"). Issue and execute come from
 * the per-instruction kernel (core/timing_kernel.hpp) with the issue
 * floor max(dispatch + frontendLatency, dispatch + 1), the issue-width
 * ring's slot search and the Section 5 reissue order; commit is
 * max(previous commit, execute + 1).
 *
 * The loop still steps one cycle at a time, because fetch depends on
 * the window's load, the reorder buffer's occupancy and branch
 * resolution in each cycle. Two rings of per-cycle counts (issues, and
 * window departures) cover every cycle an event can land on; the
 * reorder buffer keeps each in-flight entry's departure and commit
 * cycles in program order, plus its retire-time predictor update.
 *
 * Fills @p result's cycle count, operand-use counters and (for the
 * Perfect path) the oracle prediction counters; the caller owns every
 * other statistic.
 */
template <VpPath Vp, typename Kernel>
void
runPipelineLoop(TraceSpan records, const PipelineConfig &config,
                TraceFetchBase &engine, InterleavedVpTable *vpTable,
                Kernel &kernel, PipelineResult &result)
{
    constexpr bool trainsPredictor =
        Vp == VpPath::Table || Vp == VpPath::Plain;
    const unsigned windowSize = config.windowSize;
    const unsigned issueWidth = config.issueWidth;
    const Cycle issueDelay = std::max<Cycle>(config.frontendLatency, 1);
    const Cycle vpPenalty = config.vpPenalty;
    const bool dispatchTiming =
        config.vpUpdateTiming == VpUpdateTiming::Dispatch;

    std::vector<RegisterRecord> registers(registerFileSize);

    // The reorder buffer: in-flight entries in program order, live in
    // [robHead, robTail). Window slots free at execute, but an entry
    // stays here until it commits; the fetch gate caps the occupancy at
    // robCapacity. A squash pops wrong-path bubbles off the tail.
    const std::size_t robCapacity =
        static_cast<std::size_t>(windowSize) * 8;
    const std::size_t robRingSize = std::bit_ceil(robCapacity);
    const std::uint64_t robMask = robRingSize - 1;
    std::vector<InFlight> rob(robRingSize);
    std::vector<RetireUpdate> retireUpdates(
        trainsPredictor && !dispatchTiming ? robRingSize : 0);
    std::uint64_t robHead = 0;
    std::uint64_t robTail = 0;

    // Every event lands within horizon cycles of the cycle that
    // dispatches it. Along any dependence chain through the at most
    // robCapacity in-flight entries, each link adds at most a wakeup
    // plus a reissue penalty, and the issue width can hold back at most
    // one cycle per in-flight entry in all. So per-cycle rings of
    // bit_ceil(horizon + 1) counts never alias a live cycle.
    const Cycle horizon =
        issueDelay + (Cycle{robCapacity} + 1) * (wakeLatency + vpPenalty + 1);
    const std::size_t ringSize = std::bit_ceil(horizon + 1);
    const std::uint64_t ringMask = ringSize - 1;
    std::vector<std::uint32_t> issuesAt(ringSize, 0);
    std::vector<std::uint32_t> departuresAt(ringSize, 0);
    std::vector<std::uint32_t> departureRecount; // Full audits only
    // Whatever issues in cycle c sits in the window at the end of cycle
    // c - 1: it dispatched at least a cycle earlier and leaves at its
    // execute, no earlier than c. So at most windowSize instructions
    // issue in any cycle, and with windowSize <= issueWidth (the paper's
    // 40-entry, 40-wide machine) issue slots never bind: they go
    // uncounted.
    const bool issueSlotsBind = issueWidth < windowSize;
    // Claim the first cycle in [earliest, limit) with an issue slot
    // left; limit, claiming nothing, when there is none.
    const auto claimIssue = [&](Cycle earliest, Cycle limit) {
        Cycle at = earliest;
        while (issueSlotsBind && at < limit &&
               issuesAt[at & ringMask] >= issueWidth)
            ++at;
        if (issueSlotsBind && at < limit)
            ++issuesAt[at & ringMask];
        return at;
    };

    std::span<const VpGrant> grants;
    std::size_t grant_cursor = 0;
    std::vector<Addr> bundlePcs;

    Cycle now = 0;
    // Commit cycle of the youngest correct-path entry dispatched.
    Cycle lastCommit = 0;
    std::uint64_t committed = 0;
    Cycle idleCycles = 0;
    // Dispatched entries whose window slot has not freed yet.
    unsigned windowLoad = 0;
    // Execute cycle and trace position of the unresolved mispredicted
    // branch.
    Cycle resolveAt = noPendingBranch;
    SeqNum resolvePosition = invalidSeqNum;

    // Dispatch the correct-path @p records in cycle now: fix each one's
    // issue, execute and commit cycles, and value-predict its output.
    // One call per bundle, so the loop body inlines into it.
    const auto dispatch = [&](TraceSpan correct_path) {
        OperandUses uses;
        for (const TraceRecord &record : correct_path) {
            RetireUpdate *retire = trainsPredictor && !dispatchTiming
                                       ? &retireUpdates[robTail & robMask]
                                       : nullptr;
            if (retire != nullptr)
                retire->tracked = false;

            // The record's own prediction, which the kernel asks for
            // when the record writes a register.
            const auto predict_own = [&] {
                if (Vp == VpPath::None || !vpPredicts(config.vpScope, record))
                    return VpOutcome{};
                if constexpr (Vp == VpPath::Perfect) {
                    ++result.vpPredictionsMade;
                    ++result.vpPredictionsCorrect;
                    return VpOutcome{true, true};
                }
                // predict() immediately followed by update() collapses
                // into the kernel's fused single-probe path (identical
                // state machine).
                if constexpr (Vp == VpPath::Plain) {
                    if (dispatchTiming)
                        return kernel.predictAndTrain(record.pc,
                                                      record.result);
                }
                // A lookup whose outcome trains at retire is owed an
                // update there.
                bool looked_up = true;
                ClassifiedPrediction prediction;
                if constexpr (Vp == VpPath::Table) {
                    const VpGrant &grant = grants[grant_cursor++];
                    looked_up = grant.granted;
                    prediction = grant.prediction;
                    if (looked_up && dispatchTiming)
                        vpTable->update(record.pc, prediction, record.result);
                } else if constexpr (Vp == VpPath::Plain) {
                    prediction = kernel.predict(record.pc);
                }
                if (retire != nullptr)
                    *retire = {looked_up, record.pc, record.result,
                               prediction};
                VpOutcome own;
                own.predicted = looked_up && prediction.predicted;
                own.correct =
                    own.predicted && prediction.value == record.result;
                return own;
            };
            const Cycle exec =
                timeInstruction<IssueCycleReissue, Vp != VpPath::None>(
                    registers.data(), record, now + issueDelay, vpPenalty,
                    wakeLatency,
                    [&](Cycle at) { return claimIssue(at, ~Cycle{0}); },
                    predict_own, uses);
            panicIf(exec - now > horizon,
                    "pipeline event outside the horizon");
            ++departuresAt[exec & ringMask];
            ++windowLoad;
            lastCommit = std::max(lastCommit, exec + 1);
            rob[robTail & robMask] = {exec, lastCommit};
            ++robTail;
        }
        result.stallingUses += uses.stallingUses;
        result.correctlyPredictedUses += uses.correctlyPredictedUses;
        result.usefulPredictions += uses.usefulPredictions;
    };

    while (committed < records.size()) {
        ++now;
        bool progress = false;
        if ((now & 0x3ff) == 0)
            simHeartbeat(now); // --job-timeout watchdog progress

        // Deep audit of the bookkeeping the fetch gate relies on. A
        // drifted window load admits more in-flight instructions than
        // the window allows and silently inflates every IPC the machine
        // reports; an entry without exactly one pending departure would
        // hold its slot forever or free someone else's.
        if (invariantsActive(InvariantLevel::Full)) {
            departureRecount.assign(ringSize, 0);
            for (std::uint64_t slot = robHead; slot != robTail; ++slot) {
                const InFlight &entry = rob[slot & robMask];
                if (entry.depart >= now)
                    ++departureRecount[entry.depart & ringMask];
            }
            std::uint64_t pending = 0;
            for (const std::uint32_t count : departuresAt)
                pending += count;
            checkInvariant(InvariantLevel::Full,
                           pending == windowLoad &&
                               departureRecount == departuresAt,
                           "pipeline.unexecuted_bookkeeping", [&] {
                               return "cycle " + std::to_string(now) +
                                      ": window load says " +
                                      std::to_string(windowLoad) + ", " +
                                      std::to_string(pending) +
                                      " departures pending, " +
                                      (departureRecount == departuresAt
                                           ? "one per in-flight entry"
                                           : "not one per in-flight "
                                             "entry");
                           });
            checkInvariant(InvariantLevel::Full, windowLoad <= windowSize,
                           "pipeline.window_occupancy", [&] {
                               return "cycle " + std::to_string(now) +
                                      ": " + std::to_string(windowLoad) +
                                      " in flight exceeds window " +
                                      std::to_string(windowSize);
                           });
        }

        // --- Commit: entries whose commit cycle has come, in order.
        // Train the value predictor in program order at retire; the
        // speculative lookup-time update covered in-flight copies
        // (paper §3.1: the correct value is stored in the table "as
        // soon as it is known", and retire order keeps the stride state
        // consistent). ---
        while (robHead != robTail) {
            const InFlight &head = rob[robHead & robMask];
            if (head.commit > now)
                break;
            panicIf(head.commit == wrongPathCommit,
                    "a wrong-path entry survived to commit");
            if constexpr (trainsPredictor) {
                if (!dispatchTiming) {
                    const RetireUpdate &owed =
                        retireUpdates[robHead & robMask];
                    if (owed.tracked) {
                        if constexpr (Vp == VpPath::Table)
                            vpTable->update(owed.pc, owed.prediction,
                                            owed.result);
                        else
                            kernel.update(owed.pc, owed.prediction,
                                          owed.result);
                    }
                }
            }
            ++committed;
            ++robHead;
            progress = true;
        }

        // --- Execute: this cycle's window departures. A mispredicted
        // branch executing now redirects fetch, and every younger entry
        // (all wrong-path bubbles, since correct-path fetch was stalled)
        // squashes; a bubble that had not issued yet departs now. ---
        {
            const std::uint64_t at = now & ringMask;
            progress = progress || departuresAt[at] != 0;
            windowLoad -= departuresAt[at];
            departuresAt[at] = 0;
            issuesAt[at] = 0;
        }
        if (now == resolveAt) {
            engine.branchResolved(resolvePosition, now);
            while (robTail != robHead &&
                   rob[(robTail - 1) & robMask].commit == wrongPathCommit)
                --robTail;
            resolveAt = noPendingBranch;
        }

        // --- Fetch/dispatch. ---
        if (!engine.done() && windowLoad < windowSize &&
            robTail - robHead < robCapacity) {
            const std::size_t room = std::min<std::size_t>(
                windowSize - windowLoad, robCapacity - (robTail - robHead));
            const unsigned budget =
                issueWidth < room ? issueWidth : static_cast<unsigned>(room);
            const FetchBundle bundle = engine.fetch(now, budget);
            checkInvariant(InvariantLevel::Cheap,
                           bundle.records.size() <= budget,
                           "fetch.bundle_le_budget", [&] {
                               return "cycle " + std::to_string(now) +
                                      ": front end '" + engine.name() +
                                      "' delivered " +
                                      std::to_string(bundle.records.size()) +
                                      " insts against a budget of " +
                                      std::to_string(budget);
                           });
            progress = progress || !bundle.records.empty();

            // Interleaved-table arbitration happens once per bundle.
            if constexpr (Vp == VpPath::Table) {
                bundlePcs.clear();
                for (const TraceRecord &rec : bundle.records) {
                    if (vpPredicts(config.vpScope, rec))
                        bundlePcs.push_back(rec.pc);
                }
                grants = vpTable->processBundle(bundlePcs);
            }
            grant_cursor = 0;

            // Wrong-path bubbles: poll (and pollute) the value
            // predictor, then release the lookup immediately; no
            // operands, no rename-map update, never committed. A bubble
            // issues (and executes) only before its branch resolves; one
            // that would issue later takes no issue slot and holds its
            // window slot until the squash.
            if (bundle.wrongPath) {
                panicIf(resolveAt == noPendingBranch,
                        "wrong-path fetch without a pending branch");
                for (const TraceRecord &record : bundle.records) {
                    if (trainsPredictor && vpPredicts(config.vpScope, record)) {
                        if constexpr (Vp == VpPath::Table) {
                            if (grants[grant_cursor++].granted)
                                vpTable->abandon(record.pc);
                        } else if constexpr (Vp == VpPath::Plain) {
                            kernel.predict(record.pc);
                            kernel.abandon(record.pc);
                        }
                    }
                    const Cycle depart = claimIssue(
                        std::min(now + issueDelay, resolveAt), resolveAt);
                    ++departuresAt[depart & ringMask];
                    ++windowLoad;
                    rob[robTail & robMask] = {depart, wrongPathCommit};
                    ++robTail;
                }
            } else {
                dispatch(bundle.records);
                // The bundle's last record is the mispredicted branch;
                // it resolves when it executes.
                if (bundle.endsInMispredict) {
                    resolveAt = rob[(robTail - 1) & robMask].depart;
                    resolvePosition =
                        bundle.first + bundle.records.size() - 1;
                }
            }
        }

        if (!progress) {
            ++idleCycles;
            panicIf(idleCycles > 1000000,
                    "pipeline machine deadlocked (no progress)");
        } else {
            idleCycles = 0;
        }
    }

    result.cycles = lastCommit;
}

} // namespace

PipelineResult
runPipelineMachine(TraceSpan records, const PipelineConfig &config)
{
    checkPipelineConfig(config);
    PipelineResult result;
    result.instructions = records.size();
    if (records.empty())
        return result;

    PipelineComponents parts(records, config);
    TraceFetchBase &engine = parts.engine();
    // One cycle-loop instantiation per value-prediction flavour, and
    // on the Plain path per raw predictor (its kernel is chosen once).
    NoKernel none;
    if (!config.useValuePrediction) {
        runPipelineLoop<VpPath::None>(records, config, engine, nullptr,
                                      none, result);
    } else if (config.perfectValuePrediction) {
        runPipelineLoop<VpPath::Perfect>(records, config, engine, nullptr,
                                         none, result);
    } else if (parts.vpTable() != nullptr) {
        runPipelineLoop<VpPath::Table>(records, config, engine,
                                       parts.vpTable(), none, result);
    } else {
        parts.plainPredictor()->withKernel([&](auto &kernel) {
            runPipelineLoop<VpPath::Plain>(records, config, engine,
                                           nullptr, kernel, result);
        });
    }

    result.ipc = static_cast<double>(result.instructions) /
                 static_cast<double>(result.cycles);
    parts.collectStats(result);

    // Always-on O(1) audits mirroring the ideal machine's bounds.
    checkInvariant(InvariantLevel::Cheap,
                   result.instructions <=
                       result.cycles * config.issueWidth,
                   "pipeline.ipc_le_issue_width", [&] {
                       return std::to_string(result.instructions) +
                              " insts in " +
                              std::to_string(result.cycles) +
                              " cycles exceeds issue width " +
                              std::to_string(config.issueWidth);
                   });
    checkInvariant(
        InvariantLevel::Cheap,
        result.vpPredictionsMade ==
            result.vpPredictionsCorrect + result.vpPredictionsWrong,
        "vp.hit_miss_balance", [&] {
            return std::to_string(result.vpPredictionsMade) +
                   " made != " +
                   std::to_string(result.vpPredictionsCorrect) +
                   " correct + " +
                   std::to_string(result.vpPredictionsWrong) + " wrong";
        });
    return result;
}

std::string
PipelineResult::report() const
{
    std::ostringstream oss;
    oss << "pipeline machine: " << instructions << " insts in "
        << cycles << " cycles (IPC " << ipc << ")\n";
    oss << "  branches: accuracy " << branchAccuracy * 100.0 << "%, "
        << branchMispredicts << " mispredicts\n";
    if (vpPredictionsMade > 0) {
        oss << "  value predictions: " << vpPredictionsMade << " made, "
            << vpPredictionsCorrect << " correct, " << vpPredictionsWrong
            << " wrong\n";
    }
    if (tcLookups > 0) {
        oss << "  trace cache: hit rate " << tcHitRate * 100.0 << "%, "
            << tcLineInsts << " line insts delivered\n";
    }
    if (vptRequests > 0) {
        oss << "  vp table: " << vptRequests << " requests, "
            << vptMergedRequests << " merged, " << vptDeniedRequests
            << " denied, " << vptDistributorAdditions
            << " distributor adds\n";
    }
    if (wrongPathFetched > 0) {
        oss << "  wrong path: " << wrongPathFetched
            << " instructions fetched and squashed\n";
    }
    return oss.str();
}

double
pipelineVpSpeedup(TraceSpan records, const PipelineConfig &config)
{
    PipelineConfig base = config;
    base.useValuePrediction = false;
    PipelineConfig vp = config;
    vp.useValuePrediction = true;

    const PipelineResult base_result = runPipelineMachine(records, base);
    const PipelineResult vp_result = runPipelineMachine(records, vp);
    return vpSpeedup(base_result.cycles, vp_result.cycles);
}

} // namespace vpsim
