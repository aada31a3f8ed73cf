#include "core/pipeline_components.hpp"

#include "common/logging.hpp"

namespace vpsim
{

void
checkPipelineConfig(const PipelineConfig &config)
{
    fatalIf(config.windowSize == 0, "window size must be positive");
    fatalIf(config.issueWidth == 0, "issue width must be positive");
    fatalIf(config.modelWrongPath &&
                (config.frontEnd != FrontEndKind::Sequential ||
                 config.program == nullptr),
            "wrong-path modelling needs the Sequential front end and a "
            "program image");
}

PipelineComponents::PipelineComponents(TraceSpan records,
                                       const PipelineConfig &config)
{
    if (config.perfectBranchPredictor) {
        bpred = std::make_unique<PerfectBranchPredictor>();
    } else {
        auto two_level =
            std::make_unique<TwoLevelPApPredictor>(config.btbConfig);
        btb = two_level.get();
        bpred = std::move(two_level);
    }

    if (config.frontEnd == FrontEndKind::Sequential) {
        auto seq_engine = std::make_unique<SequentialFetch>(
            records, *bpred, config.maxTakenBranches,
            config.modelWrongPath ? config.program : nullptr);
        seqFetch = seq_engine.get();
        fetchEngine = std::move(seq_engine);
    } else if (config.frontEnd == FrontEndKind::TraceCache) {
        auto tc_engine = std::make_unique<TraceCacheFetch>(
            records, *bpred, config.traceCacheConfig);
        tc = tc_engine.get();
        fetchEngine = std::move(tc_engine);
    } else if (config.frontEnd == FrontEndKind::BranchAddressCache) {
        auto bac_engine = std::make_unique<BranchAddressCacheFetch>(
            records, *bpred, config.bacConfig);
        bac = bac_engine.get();
        fetchEngine = std::move(bac_engine);
    } else {
        auto cb_engine = std::make_unique<CollapsingBufferFetch>(
            records, *bpred, config.collapsingBufferConfig);
        cb = cb_engine.get();
        fetchEngine = std::move(cb_engine);
    }

    if (config.useValuePrediction && !config.perfectValuePrediction) {
        auto classified = makeClassifiedPredictor(
            config.predictorKind, config.tableCapacity,
            config.counterBits, config.missPolicy);
        if (config.useInterleavedVpTable) {
            table = std::make_unique<InterleavedVpTable>(
                std::move(classified), config.vpTableConfig);
        } else {
            plain = std::move(classified);
        }
    }
}

void
PipelineComponents::collectStats(PipelineResult &result) const
{
    result.branchMispredicts = fetchEngine->mispredicts();
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
    if (seqFetch)
        result.wrongPathFetched = seqFetch->wrongPathFetched();
    if (table) {
        ClassifiedPredictor &classified = table->predictor();
        result.vpPredictionsMade = classified.predictionsMade();
        result.vpPredictionsCorrect = classified.predictionsCorrect();
        result.vpPredictionsWrong = classified.predictionsWrong();
        result.vptRequests = table->requests();
        result.vptMergedRequests = table->mergedRequests();
        result.vptDeniedRequests = table->deniedRequests();
        result.vptDistributorAdditions = table->distributorAdditions();
    } else if (plain) {
        result.vpPredictionsMade = plain->predictionsMade();
        result.vpPredictionsCorrect = plain->predictionsCorrect();
        result.vpPredictionsWrong = plain->predictionsWrong();
    }
}

} // namespace vpsim
