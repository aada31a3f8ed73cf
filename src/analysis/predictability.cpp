#include "analysis/predictability.hpp"

#include "predictor/stride.hpp"

namespace vpsim
{

PredictabilityAnalysis
analyzePredictability(const std::vector<TraceRecord> &records)
{
    StridePredictor predictor;

    // Each register's last writer (its trace position), and whether
    // that instance's value was correctly predicted.
    struct Writer
    {
        SeqNum position = invalidSeqNum;
        bool predicted = false;
    };
    std::vector<Writer> lastWriter(registerFileSize);

    std::uint64_t arcs = 0;
    std::uint64_t unpredictable = 0;
    std::uint64_t predictableDid[4] = {0, 0, 0, 0}; // 1,2,3,>=4

    for (SeqNum position = 0; position < records.size(); ++position) {
        const TraceRecord &record = records[position];
        const auto consume = [&](RegIndex reg) {
            if (reg == invalidReg || reg == 0)
                return;
            const Writer &producer = lastWriter[reg];
            if (producer.position == invalidSeqNum)
                return;
            ++arcs;
            if (!producer.predicted) {
                ++unpredictable;
                return;
            }
            const std::uint64_t did = position - producer.position;
            if (did >= 4)
                ++predictableDid[3];
            else
                ++predictableDid[did - 1];
        };
        consume(record.rs1);
        consume(record.rs2);

        if (record.producesValue()) {
            // The fused lookup-and-train is the lookup() + train() pair
            // with no copy in flight.
            ClassifierState *unused = nullptr;
            const RawPrediction raw =
                predictor.lookupTrain(record.pc, record.result, unused);
            lastWriter[record.rd] = {
                position, raw.hasPrediction && raw.value == record.result};
        }
    }

    PredictabilityAnalysis analysis;
    analysis.totalArcs = arcs;
    if (arcs == 0)
        return analysis;
    const auto frac = [arcs](std::uint64_t count) {
        return static_cast<double>(count) / static_cast<double>(arcs);
    };
    analysis.fracUnpredictable = frac(unpredictable);
    analysis.fracPredictableDid1 = frac(predictableDid[0]);
    analysis.fracPredictableDid2 = frac(predictableDid[1]);
    analysis.fracPredictableDid3 = frac(predictableDid[2]);
    analysis.fracPredictableDid4Plus = frac(predictableDid[3]);
    return analysis;
}

} // namespace vpsim
