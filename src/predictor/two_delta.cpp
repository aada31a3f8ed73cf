#include "predictor/two_delta.hpp"

namespace vpsim
{

RawPrediction
TwoDeltaStridePredictor::lookup(Addr pc)
{
    Entry &entry = table.findOrAllocate(pc);
    ++entry.inFlight;
    if (entry.timesSeen == 0)
        return {};
    entry.specValue += entry.stride1;
    return {true, entry.specValue};
}

void
TwoDeltaStridePredictor::train(Addr pc, Value actual,
                               bool spec_was_correct)
{
    Entry &entry = table.findOrAllocate(pc);
    if (entry.inFlight > 0)
        --entry.inFlight;
    bool stable = false;
    if (entry.timesSeen > 0) {
        const Value observed = actual - entry.lastValue;
        // Promote the candidate stride only when confirmed twice.
        if (observed == entry.stride2)
            entry.stride1 = observed;
        stable = observed == entry.stride1;
        entry.stride2 = observed;
    }
    entry.lastValue = actual;
    if (!spec_was_correct) {
        entry.specValue = stable
            ? actual + entry.stride1 * static_cast<Value>(entry.inFlight)
            : actual;
    }
    if (entry.timesSeen < 2)
        ++entry.timesSeen;
}

void
TwoDeltaStridePredictor::abandon(Addr pc)
{
    Entry *entry = table.find(pc);
    if (entry && entry->inFlight > 0)
        --entry->inFlight;
}

StrideInfo
TwoDeltaStridePredictor::strideInfo(Addr pc) const
{
    const Entry *entry = table.find(pc);
    if (!entry || entry->timesSeen == 0)
        return {};
    return {true, entry->specValue, entry->stride1};
}

} // namespace vpsim
