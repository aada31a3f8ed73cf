/**
 * @file
 * The paper's Section 5 execution model: a 40-entry instruction window
 * with 40 execution units and a decode/issue width of 40, register
 * renaming (no name-dependence stalls), branch prediction with a 3-cycle
 * misprediction penalty, and value prediction with a 1-cycle
 * misprediction penalty where only the dependent instructions are
 * invalidated and rescheduled (selective reissue).
 *
 * The model is a cycle-by-cycle structural simulation: fetch (through a
 * pluggable front end: multi-branch sequential fetch or a trace cache),
 * dispatch into a reorder buffer, dataflow issue/execute with unit
 * latency, and in-order commit. Branch mispredictions stall fetch until
 * the cycle after the branch executes, which with the 2-cycle front end
 * realizes the paper's 3-cycle penalty.
 */

#ifndef VPSIM_CORE_PIPELINE_MACHINE_HPP
#define VPSIM_CORE_PIPELINE_MACHINE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/two_level.hpp"
#include "core/ideal_machine.hpp"
#include "common/types.hpp"
#include "fetch/branch_address_cache.hpp"
#include "fetch/collapsing_buffer.hpp"
#include "fetch/icache.hpp"
#include "fetch/trace_cache.hpp"
#include "vm/program.hpp"
#include "predictor/factory.hpp"
#include "trace/record.hpp"
#include "vptable/interleaved_table.hpp"

namespace vpsim
{

/** Which front end feeds the pipeline. */
enum class FrontEndKind
{
    /** Width-limited fetch with a taken-branch-per-cycle cap (§5.1). */
    Sequential,
    /** Trace cache with conventional-fetch miss path (§5, Fig 5.3). */
    TraceCache,
    /** Branch address cache + interleaved icache ([28], §2.2). */
    BranchAddressCache,
    /** Two-line fetch with intra-line branch collapsing ([1], §2.2). */
    CollapsingBuffer,
};

/** When an instruction's window slot becomes reusable. */
enum class WindowFreePolicy
{
    /**
     * At execute — the window is a scheduling window, matching the
     * paper's Section 3 ideal model which Section 5 builds on ("a
     * finite instruction window of 40 instructions").
     */
    AtExecute,
    /**
     * At in-order commit — the window is a reorder buffer. Little's law
     * then caps IPC near windowSize / pipeline depth regardless of
     * value prediction; kept as an ablation knob.
     */
    AtCommit,
};

/** When the value predictor's tables are trained. */
enum class VpUpdateTiming
{
    /**
     * Immediately at dispatch, in program order — the trace-driven
     * methodology of the paper (the predictor always sees coherent
     * sequential state; in-flight staleness is not modelled).
     */
    Dispatch,
    /**
     * At retire. Models real update latency: predictions read at
     * dispatch use state that lags by the in-flight window, which
     * punishes short-period value patterns (kept as an ablation knob;
     * see the README's "predictor update timing" discussion).
     */
    Retire,
};

/** Configuration of one pipeline-machine run. */
struct PipelineConfig
{
    /** Instruction window entries (paper: 40). */
    unsigned windowSize = 40;
    /** Window slot reuse policy (paper: scheduling window). */
    WindowFreePolicy windowFreePolicy = WindowFreePolicy::AtExecute;
    /** Decode/issue width (paper: 40). */
    unsigned issueWidth = 40;
    /** Commit width. */
    unsigned commitWidth = 40;
    /** Cycles from fetch to earliest execute (fetch + decode/issue). */
    unsigned frontendLatency = 2;
    /** Extra cycles a dependent loses on a value misprediction. */
    unsigned vpPenalty = 1;

    /** @name Value prediction */
    /// @{
    bool useValuePrediction = false;
    bool perfectValuePrediction = false;
    PredictorKind predictorKind = PredictorKind::Stride;
    unsigned counterBits = 2;
    MissPolicy missPolicy = MissPolicy::Reset;
    VpUpdateTiming vpUpdateTiming = VpUpdateTiming::Dispatch;
    std::size_t tableCapacity = 0;
    /** Instruction coverage (paper: all value producers; [13]: loads). */
    VpScope vpScope = VpScope::AllInstructions;
    /** Route lookups through the §4 interleaved table (bank conflicts). */
    bool useInterleavedVpTable = false;
    VpTableConfig vpTableConfig{};
    /// @}

    /** @name Front end */
    /// @{
    FrontEndKind frontEnd = FrontEndKind::Sequential;
    /** Taken transfers fetchable per cycle; 0 = unlimited (§5.1). */
    unsigned maxTakenBranches = 1;
    TraceCacheConfig traceCacheConfig{};
    BacConfig bacConfig{};
    CollapsingBufferConfig collapsingBufferConfig{};
    /** Model instruction-cache misses on the Sequential front end. */
    bool useInstructionCache = false;
    ICacheConfig icacheConfig{};
    /**
     * Fetch down the mispredicted path while a branch resolves
     * (Sequential front end only; requires @c program). Wrong-path
     * instructions occupy window slots, consume fetch/issue bandwidth
     * and pollute the value predictor's speculative state, then squash.
     */
    bool modelWrongPath = false;
    /** Static program image for wrong-path navigation (not owned). */
    const Program *program = nullptr;
    /** Ideal BTB (oracle) vs the 2-level PAp predictor. */
    bool perfectBranchPredictor = true;
    TwoLevelConfig btbConfig{};
    /// @}
};

/** Outcome of one pipeline run. */
struct PipelineResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;

    /** Control-flow prediction accuracy over the run. */
    double branchAccuracy = 1.0;
    std::uint64_t branchMispredicts = 0;

    std::uint64_t vpPredictionsMade = 0;
    std::uint64_t vpPredictionsCorrect = 0;
    std::uint64_t vpPredictionsWrong = 0;

    /** Trace-cache statistics (TraceCache front end only). */
    double tcHitRate = 0.0;
    std::uint64_t tcLookups = 0;
    std::uint64_t tcLineInsts = 0;

    /** Branch-address-cache statistics (BAC front end only). */
    double bacHitRate = 0.0;
    std::uint64_t bacBankConflicts = 0;

    /** Collapsing-buffer statistics (CollapsingBuffer front end). */
    std::uint64_t cbCollapsedBranches = 0;

    /** Instruction cache statistics (when enabled). */
    double icacheHitRate = 1.0;

    /** Wrong-path instructions fetched then squashed (when modelled). */
    std::uint64_t wrongPathFetched = 0;

    /** Interleaved-table statistics (when enabled). */
    std::uint64_t vptRequests = 0;
    std::uint64_t vptMergedRequests = 0;
    std::uint64_t vptDeniedRequests = 0;
    std::uint64_t vptDistributorAdditions = 0;

    /** Multi-line human-readable summary of this run. */
    std::string report() const;
};

/**
 * Run the Section 5 machine over @p records.
 *
 * Takes a span: the cycle-driven model's front ends need random access
 * into the dynamic trace (trace-cache line construction, wrong-path
 * navigation), so block-at-a-time delivery does not fit it. Callers
 * pass the whole trace they already hold; a std::vector<TraceRecord>
 * converts implicitly.
 */
PipelineResult runPipelineMachine(TraceSpan records,
                                  const PipelineConfig &config);

/** Speedup of value prediction: cycles(VP off) / cycles(VP on). */
double pipelineVpSpeedup(TraceSpan records,
                         const PipelineConfig &config);

} // namespace vpsim

#endif // VPSIM_CORE_PIPELINE_MACHINE_HPP
