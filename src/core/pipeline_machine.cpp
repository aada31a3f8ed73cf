#include "core/pipeline_machine.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <memory>
#include <span>

#include "common/cancellation.hpp"
#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "core/speedup.hpp"
#include "fetch/sequential_fetch.hpp"
#include "isa/instruction.hpp"

namespace vpsim
{

namespace
{

/** One reorder-buffer entry. */
struct RobEntry
{
    SeqNum seq = 0;
    /** Window slot id: monotone per dispatch, reused after a squash. */
    std::uint64_t robSlot = 0;
    /** Wrong-path bubble: occupies resources, never commits. */
    bool wrongPath = false;
    Cycle fetchCycle = 0;
    bool executed = false;
    Cycle execCycle = 0;

    bool isControl = false;
    bool mispredictedBranch = false;

    bool producesValue = false;
    Addr pc = 0;
    Value result = 0;

    /** Prediction made for this instruction's own output. */
    bool vpPredicted = false;
    bool vpCorrect = false;
    bool vpTracked = false; //!< update() owed to the classifier
    ClassifiedPrediction vpPrediction;

    /** Issued (possibly speculatively); awaiting final completion. */
    bool issued = false;
    Cycle issueCycle = 0;

    /** Source operand constraint. */
    struct Operand
    {
        /** Still waiting on an in-flight producer. */
        bool pending = false;
        std::uint64_t producerSlot = 0;
        /** Producer's value was (wrongly) predicted: the consumer may
         *  issue speculatively but must reissue after the real value. */
        bool wrongSpeculation = false;
        /** Cycle the real value becomes usable (when !pending). */
        Cycle readyAt = 0;
    };
    Operand operands[2];
    unsigned numOperands = 0;
};

/** Last architectural writer of each register. */
struct WriterInfo
{
    /** Window slot of the writer, or invalid when none dispatched. */
    std::uint64_t slot = ~std::uint64_t{0};
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

/**
 * The cycle loop of the Section 5 machine, specialized per VpPath.
 *
 * The reorder buffer is a power-of-two ring indexed directly by window
 * slot id (slot & mask): entries never move, commit advances the head,
 * dispatch advances the tail, and a wrong-path squash rolls the tail
 * back. This replaced a std::deque whose segmented operator[] was the
 * hottest address computation in the simulator — the wakeup scan
 * re-derives an entry address per in-flight instruction per cycle, and
 * a producer lookup does it again per pending operand.
 *
 * Fills @p result's cycle count and (for the Perfect path) the oracle
 * prediction counters; the caller owns every other statistic.
 */
template <VpPath Vp>
void
runPipelineLoop(TraceSpan records, const PipelineConfig &config,
                TraceFetchBase &engine, InterleavedVpTable *vpTable,
                ClassifiedPredictor *plainPredictor,
                PipelineResult &result)
{
    const unsigned windowSize = config.windowSize;
    const unsigned issueWidth = config.issueWidth;
    const unsigned frontendLatency = config.frontendLatency;
    const unsigned vpPenalty = config.vpPenalty;
    const bool scopeAll = config.vpScope == VpScope::AllInstructions;
    const bool dispatchTiming =
        config.vpUpdateTiming == VpUpdateTiming::Dispatch;

    std::vector<WriterInfo> lastWriter(numArchRegs);

    // Window slots free at execute, but executed entries must outlive
    // any dispatched consumer's wakeup, so the ring also buffers them
    // until they reach the head; this bounds its growth when the head
    // stalls on a long chain.
    const std::size_t robCapacity =
        static_cast<std::size_t>(windowSize) * 8;
    const std::size_t robRingSize = std::bit_ceil(robCapacity);
    const std::uint64_t robMask = robRingSize - 1;
    std::vector<RobEntry> rob(robRingSize);
    // Live slots are [robHead, robTail): monotone as entries dispatch,
    // advanced at the head as they commit, and rolled back at the tail
    // when a wrong path squashes. Squashed slots are reused by later
    // correct-path entries; nothing can still reference them
    // (wrong-path producers never enter the rename map).
    std::uint64_t robHead = 0;
    std::uint64_t robTail = 0;
    const auto inRob = [&robHead, &robTail](std::uint64_t slot) {
        return slot >= robHead && slot < robTail;
    };

    std::vector<FetchedInst> bundle;
    std::span<const VpGrant> grants;
    std::vector<Addr> bundlePcs;

    Cycle now = 0;
    Cycle lastCommit = 0;
    std::uint64_t committed = 0;
    Cycle idleCycles = 0;
    // Dispatched-but-not-executed slots, ascending (= dispatch order).
    // This is the scheduling window's load AND the wakeup scan's work
    // list: executed entries need no wakeup (they resolved all their
    // operands to execute) and cannot issue again, so the per-cycle
    // scan visits only these slots instead of every live ring entry —
    // when the commit head stalls on a long dependency chain the ring
    // buffers up to 8x windowSize executed entries that the old
    // deque-walk re-skipped every cycle. Dispatch appends (slots are
    // monotone), execution compacts, and a wrong-path squash truncates
    // the tail, so the list stays sorted.
    std::vector<std::uint64_t> unexec;
    unexec.reserve(robRingSize);

    while (committed < records.size()) {
        ++now;
        bool progress = false;
        if ((now & 0x3ff) == 0)
            simHeartbeat(now); // --job-timeout watchdog progress

        // Deep audit: the occupancy and unexecuted bookkeeping that the
        // fetch gate below relies on. A drifted counter here admits
        // more in-flight instructions than the window allows and
        // silently inflates every IPC the machine reports.
        if (invariantsActive(InvariantLevel::Full)) {
            unsigned not_executed = 0;
            for (std::uint64_t slot = robHead; slot != robTail; ++slot)
                not_executed += rob[slot & robMask].executed ? 0u : 1u;
            checkInvariant(InvariantLevel::Full,
                           not_executed == unexec.size(),
                           "pipeline.unexecuted_bookkeeping", [&] {
                               return "cycle " + std::to_string(now) +
                                      ": work list says " +
                                      std::to_string(unexec.size()) +
                                      ", recount finds " +
                                      std::to_string(not_executed);
                           });
            checkInvariant(InvariantLevel::Full,
                           not_executed <= windowSize,
                           "pipeline.window_occupancy", [&] {
                               return "cycle " + std::to_string(now) +
                                      ": " + std::to_string(not_executed) +
                                      " in flight exceeds window " +
                                      std::to_string(windowSize);
                           });
        }

        // --- Commit: in order, executed in a previous cycle. The retire
        // width is unconstrained: window slots were recycled at
        // execute. ---
        while (robTail != robHead) {
            const RobEntry &head = rob[robHead & robMask];
            if (!head.executed || head.execCycle >= now)
                break;
            // Train the value predictor in program order at retire; the
            // speculative lookup-time update covered in-flight copies
            // (paper §3.1: the correct value is stored in the table "as
            // soon as it is known", and retire order keeps the stride
            // state consistent).
            if constexpr (Vp == VpPath::Table) {
                if (head.vpTracked)
                    vpTable->update(head.pc, head.vpPrediction,
                                    head.result);
            } else if constexpr (Vp == VpPath::Plain) {
                if (head.vpTracked)
                    plainPredictor->update(head.pc, head.vpPrediction,
                                           head.result);
            }
            panicIf(head.wrongPath,
                    "a wrong-path entry survived to commit");
            lastCommit = now;
            ++committed;
            ++robHead;
            progress = true;
        }

        // --- Execute: dataflow issue, oldest first. Operand wakeup runs
        // for every entry each cycle (a consumer must capture its
        // producer's ready time before the producer can commit); actual
        // issue is bounded by the issue width. ---
        unsigned issues_left = issueWidth;
        std::size_t survivors = 0;
        for (std::size_t k = 0; k < unexec.size(); ++k) {
            const std::uint64_t slot = unexec[k];
            RobEntry &entry = rob[slot & robMask];

            // Operand wakeup: capture producers' ready times. A consumer
            // must do this before its producer can commit, so wakeup is
            // not gated by the issue width.
            bool plain_ready = true;
            for (unsigned op = 0; op < entry.numOperands; ++op) {
                RobEntry::Operand &operand = entry.operands[op];
                if (operand.pending) {
                    panicIf(!inRob(operand.producerSlot),
                            "pending operand lost its producer");
                    const RobEntry &producer =
                        rob[operand.producerSlot & robMask];
                    if (producer.executed) {
                        operand.pending = false;
                        operand.readyAt = producer.execCycle + 1;
                    }
                }
                if (operand.wrongSpeculation)
                    continue; // does not gate issue: we speculate
                if (operand.pending || operand.readyAt > now)
                    plain_ready = false;
            }

            // Issue: non-predicted operands ready, front end done.
            if (!entry.issued) {
                if (!plain_ready || issues_left == 0 ||
                    now < entry.fetchCycle + frontendLatency) {
                    unexec[survivors++] = slot;
                    continue;
                }
                entry.issued = true;
                entry.issueCycle = now;
                --issues_left;
                progress = true;
            }

            // Completion: wrong speculations reissue one penalty after
            // the real value arrives, unless the real value was already
            // available when the consumer issued (then it simply used
            // it and the prediction was merely useless).
            bool complete = true;
            for (unsigned op = 0; op < entry.numOperands; ++op) {
                const RobEntry::Operand &operand = entry.operands[op];
                if (!operand.wrongSpeculation)
                    continue;
                if (operand.pending) {
                    complete = false;
                    continue;
                }
                const Cycle needed =
                    operand.readyAt <= entry.issueCycle
                        ? operand.readyAt
                        : operand.readyAt + vpPenalty;
                if (needed > now)
                    complete = false;
            }
            if (!complete) {
                unexec[survivors++] = slot;
                continue;
            }

            entry.executed = true;
            entry.execCycle = now;
            progress = true;

            // A mispredicted branch redirects fetch as it resolves,
            // and every younger entry (all wrong-path bubbles, since
            // correct-path fetch was stalled) squashes. Every later
            // slot in the work list is younger than the branch, so the
            // unscanned remainder is exactly the squashed set: stop
            // here and let the resize below drop it.
            if (entry.isControl && entry.mispredictedBranch) {
                engine.branchResolved(entry.seq, now);
                while (robTail > slot + 1) {
                    RobEntry &victim = rob[(robTail - 1) & robMask];
                    panicIf(!victim.wrongPath,
                            "squashed a correct-path entry");
                    --robTail;
                }
                break;
            }
        }
        unexec.resize(survivors);

        // --- Fetch/dispatch. ---
        const unsigned window_load = static_cast<unsigned>(unexec.size());
        if (!engine.done() && window_load < windowSize &&
            robTail - robHead < robCapacity) {
            const std::size_t room = std::min<std::size_t>(
                windowSize - window_load, robCapacity - (robTail - robHead));
            const unsigned budget =
                issueWidth < room ? issueWidth : static_cast<unsigned>(room);
            bundle.clear();
            engine.fetch(now, budget, bundle);
            checkInvariant(InvariantLevel::Cheap,
                           bundle.size() <= budget,
                           "fetch.bundle_le_budget", [&] {
                               return "cycle " + std::to_string(now) +
                                      ": front end '" + engine.name() +
                                      "' delivered " +
                                      std::to_string(bundle.size()) +
                                      " insts against a budget of " +
                                      std::to_string(budget);
                           });

            // Interleaved-table arbitration happens once per bundle.
            if constexpr (Vp == VpPath::Table) {
                bundlePcs.clear();
                for (const FetchedInst &fetched : bundle) {
                    const TraceRecord &rec = fetched.record;
                    const bool in_scope =
                        scopeAll || rec.instClass() == InstClass::Load;
                    if (rec.producesValue() && in_scope)
                        bundlePcs.push_back(rec.pc);
                }
                grants = vpTable->processBundle(bundlePcs);
            }

            std::size_t grant_cursor = 0;
            for (const FetchedInst &fetched : bundle) {
                const TraceRecord &record = fetched.record;
                // Build the entry directly in its ring slot (the slot
                // is reused, so reset it first). Producers looked up
                // below live in [robHead, robTail) and can never alias
                // slot robTail: the live span is capped below the ring
                // size by the fetch gate's budget.
                RobEntry &entry = rob[robTail & robMask];
                entry = RobEntry{};
                entry.seq = record.seq;
                entry.wrongPath = fetched.wrongPath;
                entry.pc = record.pc;
                entry.fetchCycle = now;
                entry.isControl = record.isControlFlow();
                entry.mispredictedBranch = fetched.mispredicted;
                entry.producesValue = record.producesValue();
                entry.result = record.result;

                // Wrong-path bubbles: poll (and pollute) the value
                // predictor, then release the lookup immediately; no
                // operands, no rename-map update, never committed.
                if (entry.wrongPath) {
                    if constexpr (Vp == VpPath::Table ||
                                  Vp == VpPath::Plain) {
                        const bool wp_in_scope =
                            scopeAll ||
                            record.instClass() == InstClass::Load;
                        if (entry.producesValue && wp_in_scope) {
                            if constexpr (Vp == VpPath::Table) {
                                const VpGrant &grant =
                                    grants[grant_cursor++];
                                if (grant.granted)
                                    vpTable->abandon(record.pc);
                            } else {
                                plainPredictor->predict(record.pc);
                                plainPredictor->abandon(record.pc);
                            }
                        }
                    }
                    entry.robSlot = robTail;
                    unexec.push_back(robTail);
                    ++robTail;
                    progress = true;
                    continue;
                }

                // Value prediction for this instruction's own output.
                if constexpr (Vp != VpPath::None) {
                    const bool vp_in_scope =
                        scopeAll ||
                        record.instClass() == InstClass::Load;
                    if (entry.producesValue && vp_in_scope) {
                        if constexpr (Vp == VpPath::Perfect) {
                            entry.vpPredicted = true;
                            entry.vpCorrect = true;
                            ++result.vpPredictionsMade;
                            ++result.vpPredictionsCorrect;
                        } else if constexpr (Vp == VpPath::Table) {
                            const VpGrant &grant =
                                grants[grant_cursor++];
                            if (grant.granted) {
                                entry.vpPrediction = grant.prediction;
                                entry.vpPredicted =
                                    grant.prediction.predicted;
                                entry.vpCorrect =
                                    entry.vpPredicted &&
                                    grant.prediction.value ==
                                        record.result;
                                if (dispatchTiming) {
                                    vpTable->update(record.pc,
                                                    entry.vpPrediction,
                                                    record.result);
                                } else {
                                    entry.vpTracked = true;
                                }
                            }
                        } else if (dispatchTiming) {
                            // predict() immediately followed by
                            // update() collapses into the classifier's
                            // fused single-probe path (identical state
                            // machine; see ClassifiedPredictor).
                            entry.vpPrediction =
                                plainPredictor->predictAndTrain(
                                    record.pc, record.result);
                            entry.vpPredicted =
                                entry.vpPrediction.predicted;
                            entry.vpCorrect =
                                entry.vpPredicted &&
                                entry.vpPrediction.value ==
                                    record.result;
                        } else {
                            entry.vpPrediction =
                                plainPredictor->predict(record.pc);
                            entry.vpPredicted =
                                entry.vpPrediction.predicted;
                            entry.vpCorrect =
                                entry.vpPredicted &&
                                entry.vpPrediction.value ==
                                    record.result;
                            entry.vpTracked = true;
                        }
                    }
                }

                // Resolve source operands against in-flight producers.
                const auto addOperand = [&](RegIndex reg) {
                    if (reg == invalidReg || reg == 0)
                        return;
                    const WriterInfo &writer = lastWriter[reg];
                    if (!inRob(writer.slot))
                        return; // architecturally ready
                    const RobEntry &producer =
                        rob[writer.slot & robMask];
                    if constexpr (Vp != VpPath::None) {
                        if (producer.vpPredicted && producer.vpCorrect)
                            return; // speculate on the predicted value
                    }
                    RobEntry::Operand operand;
                    if constexpr (Vp != VpPath::None) {
                        operand.wrongSpeculation =
                            producer.vpPredicted && !producer.vpCorrect;
                    }
                    if (producer.executed) {
                        operand.readyAt = producer.execCycle + 1;
                    } else {
                        operand.pending = true;
                        operand.producerSlot = producer.robSlot;
                    }
                    entry.operands[entry.numOperands++] = operand;
                };
                addOperand(record.rs1);
                addOperand(record.rs2);

                entry.robSlot = robTail;
                unexec.push_back(robTail);
                ++robTail;
                if (entry.producesValue)
                    lastWriter[record.rd].slot = entry.robSlot;
                progress = true;
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
    fatalIf(config.windowSize == 0, "window size must be positive");
    fatalIf(config.issueWidth == 0, "issue width must be positive");

    fatalIf(config.modelWrongPath &&
                (config.frontEnd != FrontEndKind::Sequential ||
                 config.program == nullptr),
            "wrong-path modelling needs the Sequential front end and a "
            "program image");

    PipelineResult result;
    result.instructions = records.size();
    if (records.empty())
        return result;

    // Branch predictor.
    std::unique_ptr<BranchPredictor> bpred;
    TwoLevelPApPredictor *btb = nullptr;
    if (config.perfectBranchPredictor) {
        bpred = std::make_unique<PerfectBranchPredictor>();
    } else {
        auto two_level =
            std::make_unique<TwoLevelPApPredictor>(config.btbConfig);
        btb = two_level.get();
        bpred = std::move(two_level);
    }

    // Front end.
    std::unique_ptr<TraceFetchBase> engine;
    TraceCacheFetch *tc = nullptr;
    BranchAddressCacheFetch *bac = nullptr;
    CollapsingBufferFetch *cb = nullptr;
    SequentialFetch *seq_fetch = nullptr;
    if (config.frontEnd == FrontEndKind::Sequential) {
        auto seq_engine = std::make_unique<SequentialFetch>(
            records, *bpred, config.maxTakenBranches,
            config.modelWrongPath ? config.program : nullptr);
        seq_fetch = seq_engine.get();
        engine = std::move(seq_engine);
    } else if (config.frontEnd == FrontEndKind::TraceCache) {
        auto tc_engine = std::make_unique<TraceCacheFetch>(
            records, *bpred, config.traceCacheConfig);
        tc = tc_engine.get();
        engine = std::move(tc_engine);
    } else if (config.frontEnd == FrontEndKind::BranchAddressCache) {
        auto bac_engine = std::make_unique<BranchAddressCacheFetch>(
            records, *bpred, config.bacConfig);
        bac = bac_engine.get();
        engine = std::move(bac_engine);
    } else {
        auto cb_engine = std::make_unique<CollapsingBufferFetch>(
            records, *bpred, config.collapsingBufferConfig);
        cb = cb_engine.get();
        engine = std::move(cb_engine);
    }

    // Value predictor (plain classified, or behind the §4 banked table).
    std::unique_ptr<ClassifiedPredictor> plainPredictor;
    std::unique_ptr<InterleavedVpTable> vpTable;
    if (config.useValuePrediction && !config.perfectValuePrediction) {
        auto classified = makeClassifiedPredictor(
            config.predictorKind, config.tableCapacity,
            config.counterBits, config.missPolicy);
        if (config.useInterleavedVpTable) {
            vpTable = std::make_unique<InterleavedVpTable>(
                std::move(classified), config.vpTableConfig);
        } else {
            plainPredictor = std::move(classified);
        }
    }

    // One cycle-loop instantiation per value-prediction flavour.
    if (!config.useValuePrediction) {
        runPipelineLoop<VpPath::None>(records, config, *engine, nullptr,
                                      nullptr, result);
    } else if (config.perfectValuePrediction) {
        runPipelineLoop<VpPath::Perfect>(records, config, *engine,
                                         nullptr, nullptr, result);
    } else if (vpTable) {
        runPipelineLoop<VpPath::Table>(records, config, *engine,
                                       vpTable.get(), nullptr, result);
    } else {
        runPipelineLoop<VpPath::Plain>(records, config, *engine,
                                       nullptr, plainPredictor.get(),
                                       result);
    }

    result.ipc = static_cast<double>(result.instructions) /
                 static_cast<double>(result.cycles);
    result.branchMispredicts = engine->mispredicts();
    if (btb)
        result.branchAccuracy = btb->accuracy();
    if (tc) {
        result.tcHitRate = tc->hitRate();
        result.tcLookups = tc->lookups();
        result.tcLineInsts = tc->lineInstsDelivered();
    }
    if (bac) {
        result.bacHitRate = bac->hitRate();
        result.bacBankConflicts = bac->bankConflicts();
    }
    if (cb)
        result.cbCollapsedBranches = cb->collapsedBranches();
    if (seq_fetch)
        result.wrongPathFetched = seq_fetch->wrongPathFetched();
    if (vpTable) {
        ClassifiedPredictor &classified = vpTable->predictor();
        result.vpPredictionsMade = classified.predictionsMade();
        result.vpPredictionsCorrect = classified.predictionsCorrect();
        result.vpPredictionsWrong = classified.predictionsWrong();
        result.vptRequests = vpTable->requests();
        result.vptMergedRequests = vpTable->mergedRequests();
        result.vptDeniedRequests = vpTable->deniedRequests();
        result.vptDistributorAdditions = vpTable->distributorAdditions();
    } else if (plainPredictor) {
        result.vpPredictionsMade = plainPredictor->predictionsMade();
        result.vpPredictionsCorrect =
            plainPredictor->predictionsCorrect();
        result.vpPredictionsWrong = plainPredictor->predictionsWrong();
    }

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
