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
#include "isa/instruction.hpp"

namespace vpsim
{

namespace
{

/** A pending operand on its producer's waiter list: 2 × ring position +
 *  operand index. */
using WaiterRef = std::uint32_t;
constexpr WaiterRef noWaiter = ~WaiterRef{0};

/**
 * Cycles from a producer's execute to a woken consumer's use of the
 * real value. -DVPSIM_MUTATION=pipeline-late-wakeup adds one, a
 * scheduling bug only the reference pipeline can see
 * (scripts/mutation_smoke.sh).
 */
#ifdef VPSIM_MUTATION_PIPELINE_LATE_WAKEUP
constexpr Cycle wakeLatency = 2;
#else
constexpr Cycle wakeLatency = 1;
#endif

/**
 * The scheduler's half of a reorder-buffer entry: everything issue,
 * execute, wakeup and commit touch, on one cache line.
 */
struct alignas(64) HotEntry
{
    /**
     * Earliest issue cycle: the front end's latency and every resolved
     * plain operand's ready cycle, folded in as they resolve.
     */
    Cycle issueAt;
    Cycle issueCycle;
    Cycle execCycle;
    /** Ready cycle of each wrong-speculation operand's real value. */
    Cycle specReadyAt[2];
    /** Head of this producer's list of pending consumer operands. */
    WaiterRef waiters;
    /** Next waiter on the same producer, per operand of this entry. */
    WaiterRef nextWaiter[2];
    /** Operands still waiting on an in-flight producer, by kind. */
    std::uint8_t pendingPlain;
    std::uint8_t pendingSpec;
    /**
     * Bit k: operand k's producer was (wrongly) value-predicted, so the
     * entry may issue speculatively but must reissue after the real
     * value arrives.
     */
    std::uint8_t specMask;
    bool executed;
    bool issued;
    /** Wrong-path bubble: occupies resources, never commits. */
    bool wrongPath;
    bool mispredictedBranch;
    /** Prediction made for this instruction's own output. */
    bool vpPredicted;
    bool vpCorrect;
    bool vpTracked; //!< update() owed to the classifier at retire
};
static_assert(sizeof(HotEntry) == 64, "one cache line per hot entry");

/** The rest of an entry: read only at commit and branch resolution. */
struct ColdEntry
{
    SeqNum seq = 0;
    Addr pc = 0;
    Value result = 0;
    ClassifiedPrediction vpPrediction;
};

/**
 * Ring positions as bits, one bitmap per set: the entries ready to act
 * this cycle, and one per future cycle of the event calendar.
 */
class SlotBitmaps
{
  public:
    SlotBitmaps(std::size_t maps, std::size_t ring_size)
        : words(std::max<std::size_t>(1, ring_size / 64)),
          bits(maps * words, 0)
    {
    }

    std::uint64_t *map(std::size_t index) { return &bits[index * words]; }
    std::size_t wordsPerMap() const { return words; }

    void set(std::size_t index, std::uint64_t pos)
    {
        map(index)[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    }
    void clear(std::size_t index, std::uint64_t pos)
    {
        map(index)[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }
    bool test(std::size_t index, std::uint64_t pos) const
    {
        return (bits[index * words + (pos >> 6)] >> (pos & 63)) & 1;
    }
    std::size_t maps() const { return bits.size() / words; }

  private:
    std::size_t words;
    std::vector<std::uint64_t> bits;
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
 * back. Each entry is split hot/cold: the scheduler's fields share one
 * cache line (HotEntry); the PC, result, prediction and sequence number
 * sit in a parallel cold ring that only dispatch, commit and branch
 * resolution touch.
 *
 * Nothing polls. At dispatch, an operand whose producer has not
 * executed links itself into the producer's intrusive waiter list
 * (HotEntry::waiters / nextWaiter, ring positions, no allocation). At
 * execute, the producer walks its list and hands each waiter its ready
 * cycle. An entry enters the event calendar only once it can act: to
 * issue, when its last plain operand and the front-end latency allow;
 * to finish, when its last wrong-speculation operand's reissue cycle is
 * known. Each cycle, that cycle's calendar bitmap joins the ready
 * bitmap, and the ready entries are visited oldest first, so issue
 * stays oldest-first under the issue width and a resolving mispredicted
 * branch still stops the cycle and squashes everything younger.
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

    // Last architectural writer of each register (window slot id).
    constexpr std::uint64_t noWriter = ~std::uint64_t{0};
    std::vector<std::uint64_t> lastWriter(numArchRegs, noWriter);

    // Window slots free at execute, but executed entries must outlive
    // any dispatched consumer's wakeup, so the ring also buffers them
    // until they reach the head; this bounds its growth when the head
    // stalls on a long chain.
    const std::size_t robCapacity =
        static_cast<std::size_t>(windowSize) * 8;
    const std::size_t robRingSize = std::bit_ceil(robCapacity);
    const std::uint64_t robMask = robRingSize - 1;
    panicIf(robRingSize > (std::size_t{1} << 30),
            "window too large for 32-bit waiter links");
    std::vector<HotEntry> hot(robRingSize);
    std::vector<ColdEntry> cold(robRingSize);
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

    // Event calendar: every event lands 1 .. horizon cycles after the
    // cycle that schedules it (a front-end latency, a wakeup, or a
    // wakeup plus the reissue penalty), so a ring of calendarSize
    // bitmaps covers the future. Bitmap 0 holds the entries ready now;
    // bitmap 1 + (t & calendarMask) those that become ready at cycle t.
    const Cycle horizon = std::max<Cycle>(
        {Cycle{frontendLatency}, wakeLatency + Cycle{vpPenalty}, 1});
    const std::size_t calendarSize = std::bit_ceil(horizon + 1);
    const std::size_t calendarMask = calendarSize - 1;
    SlotBitmaps queues(1 + calendarSize, robRingSize);
    constexpr std::size_t readyNow = 0;
    const auto schedule = [&](std::uint64_t pos, Cycle at, Cycle now) {
        panicIf(at <= now || at - now > horizon,
                "pipeline event outside the calendar");
        queues.set(1 + (at & calendarMask), pos);
    };
    // Cycle at which an issued entry's wrong speculations are repaired:
    // each reissues one penalty after its real value arrives, unless the
    // real value was already available when the entry issued (then it
    // simply used it and the prediction was merely useless).
    const auto finishCycle = [vpPenalty](const HotEntry &entry) {
        Cycle done = entry.issueCycle;
        for (unsigned op = 0; op < 2; ++op) {
            if (!((entry.specMask >> op) & 1))
                continue;
            const Cycle ready = entry.specReadyAt[op];
            done = std::max(done, ready <= entry.issueCycle
                                      ? ready
                                      : ready + vpPenalty);
        }
        return done;
    };

    std::vector<FetchedInst> bundle;
    std::span<const VpGrant> grants;
    std::vector<Addr> bundlePcs;

    Cycle now = 0;
    Cycle lastCommit = 0;
    std::uint64_t committed = 0;
    Cycle idleCycles = 0;
    // Dispatched-but-not-executed entries: the scheduling window's load.
    unsigned windowLoad = 0;

    while (committed < records.size()) {
        ++now;
        bool progress = false;
        if ((now & 0x3ff) == 0)
            simHeartbeat(now); // --job-timeout watchdog progress

        // Deep audit: the occupancy and unexecuted bookkeeping that the
        // fetch gate below relies on. A drifted counter here admits
        // more in-flight instructions than the window allows and
        // silently inflates every IPC the machine reports; an entry
        // that neither waits on a producer nor sits in a queue would
        // never issue.
        if (invariantsActive(InvariantLevel::Full)) {
            unsigned not_executed = 0;
            unsigned unqueued = 0;
            for (std::uint64_t slot = robHead; slot != robTail; ++slot) {
                const std::uint64_t pos = slot & robMask;
                const HotEntry &entry = hot[pos];
                if (entry.executed)
                    continue;
                ++not_executed;
                const bool waiting = entry.issued ? entry.pendingSpec != 0
                                                  : entry.pendingPlain != 0;
                bool queued = false;
                for (std::size_t m = 0; m < queues.maps(); ++m)
                    queued = queued || queues.test(m, pos);
                unqueued += waiting || queued ? 0u : 1u;
            }
            checkInvariant(InvariantLevel::Full,
                           not_executed == windowLoad && unqueued == 0,
                           "pipeline.unexecuted_bookkeeping", [&] {
                               return "cycle " + std::to_string(now) +
                                      ": window load says " +
                                      std::to_string(windowLoad) +
                                      ", recount finds " +
                                      std::to_string(not_executed) +
                                      ", " + std::to_string(unqueued) +
                                      " neither waiting nor queued";
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
            const std::uint64_t pos = robHead & robMask;
            const HotEntry &head = hot[pos];
            if (!head.executed || head.execCycle >= now)
                break;
            // Train the value predictor in program order at retire; the
            // speculative lookup-time update covered in-flight copies
            // (paper §3.1: the correct value is stored in the table "as
            // soon as it is known", and retire order keeps the stride
            // state consistent).
            if constexpr (Vp == VpPath::Table || Vp == VpPath::Plain) {
                if (head.vpTracked) {
                    const ColdEntry &info = cold[pos];
                    if constexpr (Vp == VpPath::Table)
                        vpTable->update(info.pc, info.vpPrediction,
                                        info.result);
                    else
                        plainPredictor->update(info.pc, info.vpPrediction,
                                               info.result);
                }
            }
            panicIf(head.wrongPath,
                    "a wrong-path entry survived to commit");
            lastCommit = now;
            ++committed;
            ++robHead;
            progress = true;
        }

        // --- Execute: this cycle's events join the entries still ready
        // from earlier cycles (held back by the issue width), then the
        // ready entries act oldest first. ---
        {
            std::uint64_t *ready = queues.map(readyNow);
            std::uint64_t *due = queues.map(1 + (now & calendarMask));
            for (std::size_t w = 0; w < queues.wordsPerMap(); ++w) {
                ready[w] |= due[w];
                due[w] = 0;
            }
        }
        unsigned issues_left = issueWidth;
        const std::uint64_t headPos = robHead & robMask;
        // Act on the ready entry at ring position @p pos; false when a
        // resolving mispredicted branch ends the cycle's execute phase.
        const auto act = [&](std::uint64_t pos) {
            HotEntry &entry = hot[pos];

            // Issue: plain operands ready, front end done (both implied
            // by being ready), subject to the issue width.
            if (!entry.issued) {
                if (issues_left == 0)
                    return true; // stays ready for the next cycle
                entry.issued = true;
                entry.issueCycle = now;
                --issues_left;
                progress = true;
                queues.clear(readyNow, pos);
                if (entry.pendingSpec != 0)
                    return true; // a producer's wakeup schedules it
                const Cycle done = finishCycle(entry);
                if (done > now) {
                    schedule(pos, done, now);
                    return true;
                }
            }

            // Execute: every wrong speculation has been repaired.
            queues.clear(readyNow, pos);
            entry.executed = true;
            entry.execCycle = now;
            --windowLoad;
            progress = true;

            // Wakeup: each waiting operand learns its ready cycle; a
            // consumer whose last blocker this was is scheduled.
            const Cycle readyAt = now + wakeLatency;
            for (WaiterRef ref = entry.waiters; ref != noWaiter;) {
                const std::uint64_t consumerPos = ref >> 1;
                const unsigned op = ref & 1;
                HotEntry &consumer = hot[consumerPos];
                ref = consumer.nextWaiter[op];
                if ((consumer.specMask >> op) & 1) {
                    consumer.specReadyAt[op] = readyAt;
                    if (--consumer.pendingSpec == 0 && consumer.issued)
                        schedule(consumerPos, finishCycle(consumer), now);
                } else {
                    consumer.issueAt = std::max(consumer.issueAt, readyAt);
                    if (--consumer.pendingPlain == 0)
                        schedule(consumerPos, consumer.issueAt, now);
                }
            }

            // A mispredicted branch redirects fetch as it resolves, and
            // every younger entry (all wrong-path bubbles, since
            // correct-path fetch was stalled) squashes. Every ready
            // entry not yet visited is younger than the branch, so the
            // cycle's execute phase ends here.
            if (!entry.mispredictedBranch)
                return true;
            engine.branchResolved(cold[pos].seq, now);
            const std::uint64_t slot = robHead + ((pos - headPos) & robMask);
            while (robTail > slot + 1) {
                const std::uint64_t victimPos = (robTail - 1) & robMask;
                const HotEntry &victim = hot[victimPos];
                panicIf(!victim.wrongPath, "squashed a correct-path entry");
                if (!victim.executed)
                    --windowLoad;
                for (std::size_t m = 0; m < queues.maps(); ++m)
                    queues.clear(m, victimPos);
                --robTail;
            }
            return false;
        };
        // Visit the ready positions in [lo, hi) in ascending order.
        const auto actOn = [&](std::uint64_t lo, std::uint64_t hi) {
            const std::uint64_t *ready = queues.map(readyNow);
            for (std::uint64_t w = lo >> 6; w << 6 < hi; ++w) {
                std::uint64_t bits = ready[w];
                if (w << 6 < lo)
                    bits &= ~std::uint64_t{0} << (lo & 63);
                if ((w + 1) << 6 > hi)
                    bits &= ~(~std::uint64_t{0} << (hi & 63));
                while (bits != 0) {
                    const auto bit =
                        static_cast<unsigned>(std::countr_zero(bits));
                    bits &= bits - 1;
                    if (!act((w << 6) + bit))
                        return false;
                }
            }
            return true;
        };
        // Live slots occupy ring positions from the head's onwards,
        // wrapping at most once, so these two ranges visit the ready
        // entries oldest first.
        const std::uint64_t liveEnd = headPos + (robTail - robHead);
        if (actOn(headPos, std::min<std::uint64_t>(liveEnd, robRingSize)) &&
            liveEnd > robRingSize)
            actOn(0, liveEnd - robRingSize);

        // --- Fetch/dispatch. ---
        if (!engine.done() && windowLoad < windowSize &&
            robTail - robHead < robCapacity) {
            const std::size_t room = std::min<std::size_t>(
                windowSize - windowLoad, robCapacity - (robTail - robHead));
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
                // Build the entry in its ring slot. Producers looked up
                // below live in [robHead, robTail) and can never alias
                // slot robTail: the live span is capped below the ring
                // size by the fetch gate's budget.
                const std::uint64_t pos = robTail & robMask;
                HotEntry &entry = hot[pos];
                ColdEntry &info = cold[pos];
                entry.issueAt = now + frontendLatency;
                entry.waiters = noWaiter;
                entry.pendingPlain = 0;
                entry.pendingSpec = 0;
                entry.specMask = 0;
                entry.executed = false;
                entry.issued = false;
                entry.wrongPath = fetched.wrongPath;
                entry.mispredictedBranch =
                    record.isControlFlow() && fetched.mispredicted;
                entry.vpPredicted = false;
                entry.vpCorrect = false;
                entry.vpTracked = false;
                if (entry.mispredictedBranch)
                    info.seq = record.seq;
                const bool produces_value = record.producesValue();
                const bool in_scope =
                    scopeAll || record.instClass() == InstClass::Load;

                // Wrong-path bubbles: poll (and pollute) the value
                // predictor, then release the lookup immediately; no
                // operands, no rename-map update, never committed.
                if (entry.wrongPath) {
                    if constexpr (Vp == VpPath::Table ||
                                  Vp == VpPath::Plain) {
                        if (produces_value && in_scope) {
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
                    schedule(pos, std::max(entry.issueAt, now + 1), now);
                    ++windowLoad;
                    ++robTail;
                    progress = true;
                    continue;
                }

                // Value prediction for this instruction's own output.
                if constexpr (Vp != VpPath::None) {
                    if (produces_value && in_scope) {
                        if constexpr (Vp == VpPath::Perfect) {
                            entry.vpPredicted = true;
                            entry.vpCorrect = true;
                            ++result.vpPredictionsMade;
                            ++result.vpPredictionsCorrect;
                        } else {
                            ClassifiedPrediction prediction;
                            bool looked_up = true;
                            if constexpr (Vp == VpPath::Table) {
                                const VpGrant &grant =
                                    grants[grant_cursor++];
                                looked_up = grant.granted;
                                prediction = grant.prediction;
                                if (looked_up && dispatchTiming)
                                    vpTable->update(record.pc, prediction,
                                                    record.result);
                            } else if (dispatchTiming) {
                                // predict() immediately followed by
                                // update() collapses into the
                                // classifier's fused single-probe path
                                // (identical state machine; see
                                // ClassifiedPredictor).
                                prediction =
                                    plainPredictor->predictAndTrain(
                                        record.pc, record.result);
                            } else {
                                prediction =
                                    plainPredictor->predict(record.pc);
                            }
                            if (looked_up) {
                                entry.vpPredicted = prediction.predicted;
                                entry.vpCorrect =
                                    prediction.predicted &&
                                    prediction.value == record.result;
                                if (!dispatchTiming) {
                                    entry.vpTracked = true;
                                    info.pc = record.pc;
                                    info.result = record.result;
                                    info.vpPrediction = prediction;
                                }
                            }
                        }
                    }
                }

                // Resolve source operands against in-flight producers:
                // a resolved one folds its ready cycle in now, a pending
                // one joins its producer's waiter list.
                unsigned num_operands = 0;
                const auto addOperand = [&](RegIndex reg) {
                    if (reg == invalidReg || reg == 0)
                        return;
                    const std::uint64_t writer = lastWriter[reg];
                    if (!inRob(writer))
                        return; // architecturally ready
                    HotEntry &producer = hot[writer & robMask];
                    bool wrong_speculation = false;
                    if constexpr (Vp != VpPath::None) {
                        if (producer.vpPredicted && producer.vpCorrect)
                            return; // speculate on the predicted value
                        wrong_speculation = producer.vpPredicted;
                    }
                    const unsigned op = num_operands++;
                    if (wrong_speculation)
                        entry.specMask |= static_cast<std::uint8_t>(1u << op);
                    if (producer.executed) {
                        const Cycle ready = producer.execCycle + 1;
                        if (wrong_speculation)
                            entry.specReadyAt[op] = ready;
                        else
                            entry.issueAt = std::max(entry.issueAt, ready);
                        return;
                    }
                    if (wrong_speculation)
                        ++entry.pendingSpec;
                    else
                        ++entry.pendingPlain;
                    entry.nextWaiter[op] = producer.waiters;
                    producer.waiters = static_cast<WaiterRef>(pos * 2 + op);
                };
                addOperand(record.rs1);
                addOperand(record.rs2);

                if (entry.pendingPlain == 0)
                    schedule(pos, std::max(entry.issueAt, now + 1), now);
                ++windowLoad;
                if (produces_value)
                    lastWriter[record.rd] = robTail;
                ++robTail;
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
    checkPipelineConfig(config);
    PipelineResult result;
    result.instructions = records.size();
    if (records.empty())
        return result;

    PipelineComponents parts(records, config);
    TraceFetchBase &engine = parts.engine();
    // One cycle-loop instantiation per value-prediction flavour.
    if (!config.useValuePrediction) {
        runPipelineLoop<VpPath::None>(records, config, engine, nullptr,
                                      nullptr, result);
    } else if (config.perfectValuePrediction) {
        runPipelineLoop<VpPath::Perfect>(records, config, engine, nullptr,
                                         nullptr, result);
    } else if (parts.vpTable() != nullptr) {
        runPipelineLoop<VpPath::Table>(records, config, engine,
                                       parts.vpTable(), nullptr, result);
    } else {
        runPipelineLoop<VpPath::Plain>(records, config, engine, nullptr,
                                       parts.plainPredictor(), result);
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
