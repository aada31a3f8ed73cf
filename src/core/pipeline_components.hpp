/**
 * @file
 * The components a Section 5 cycle loop drives, built from a
 * PipelineConfig: branch predictor, front end, and value predictor
 * (plain, or behind the §4 interleaved table).
 *
 * runPipelineMachine() and the reference pipeline
 * (core/reference_machine.hpp) both build their components here, so a
 * cross-check between them compares scheduling, not these components.
 * The two cycle loops share nothing else.
 */

#ifndef VPSIM_CORE_PIPELINE_COMPONENTS_HPP
#define VPSIM_CORE_PIPELINE_COMPONENTS_HPP

#include <memory>

#include "core/pipeline_machine.hpp"
#include "fetch/fetch_engine.hpp"
#include "fetch/sequential_fetch.hpp"

namespace vpsim
{

/** Fatal on a config no Section 5 machine can run. */
void checkPipelineConfig(const PipelineConfig &config);

/** One run's branch predictor, front end and value predictor. */
class PipelineComponents
{
  public:
    /** @p records must outlive the components (the front end views it). */
    PipelineComponents(TraceSpan records, const PipelineConfig &config);

    TraceFetchBase &engine() { return *fetchEngine; }
    /** The plain classified predictor, or null (VP off, perfect, table). */
    ClassifiedPredictor *plainPredictor() { return plain.get(); }
    /** The §4 interleaved table, or null when not configured. */
    InterleavedVpTable *vpTable() { return table.get(); }

    /**
     * Fill @p result's component statistics: branch, front-end and
     * value-predictor counters. Cycles, IPC and the perfect-VP
     * counters belong to the cycle loop.
     */
    void collectStats(PipelineResult &result) const;

  private:
    std::unique_ptr<BranchPredictor> bpred;
    TwoLevelPApPredictor *btb = nullptr;
    std::unique_ptr<TraceFetchBase> fetchEngine;
    TraceCacheFetch *tc = nullptr;
    BranchAddressCacheFetch *bac = nullptr;
    CollapsingBufferFetch *cb = nullptr;
    SequentialFetch *seqFetch = nullptr;
    std::unique_ptr<ClassifiedPredictor> plain;
    std::unique_ptr<InterleavedVpTable> table;
};

} // namespace vpsim

#endif // VPSIM_CORE_PIPELINE_COMPONENTS_HPP
