#include "predictor/stride.hpp"

namespace vpsim
{

RawPrediction
StridePredictor::lookup(Addr pc)
{
    Entry &entry = table.findOrAllocate(pc);
    ++entry.inFlight;
    if (entry.timesSeen == 0)
        return {};
    // Advance the table so a second in-flight copy of the same
    // instruction receives the next value in the sequence (§3.1, §4).
    entry.specValue += entry.stride;
    return {true, entry.specValue};
}

void
StridePredictor::train(Addr pc, Value actual, bool spec_was_correct)
{
    Entry &entry = table.findOrAllocate(pc);
    if (entry.inFlight > 0)
        --entry.inFlight;
    const Value prev_stride = entry.stride;
    bool stable = false;
    if (entry.timesSeen > 0) {
        const Value observed = actual - entry.lastValue;
        stable = observed == prev_stride;
        entry.stride = observed;
    }
    entry.lastValue = actual;
    // Repair only a WRONG speculative advance (paper §3.1). A correct
    // speculation must not be rewound (younger in-flight copies built
    // on it). When the value stream is in a stable stride run, the
    // repair re-predicts the squashed in-flight copies by projecting
    // the stride past them; an unstable stream gets a plain repair (the
    // in-flight copies are unpredictable anyway, and projecting a
    // garbage stride would manufacture confident mispredictions).
    if (!spec_was_correct) {
        entry.specValue = stable
            ? actual + entry.stride * static_cast<Value>(entry.inFlight)
            : actual;
    }
    if (entry.timesSeen < 2)
        ++entry.timesSeen;
}

void
StridePredictor::abandon(Addr pc)
{
    Entry *entry = table.find(pc);
    if (entry && entry->inFlight > 0)
        --entry->inFlight;
}

StrideInfo
StridePredictor::strideInfo(Addr pc) const
{
    const Entry *entry = table.find(pc);
    if (!entry || entry->timesSeen == 0)
        return {};
    return {true, entry->specValue, entry->stride};
}

} // namespace vpsim
