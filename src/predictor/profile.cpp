#include "predictor/profile.hpp"

#include "predictor/last_value.hpp"
#include "predictor/stride.hpp"

namespace vpsim
{

ProfileHints
ProfileHints::profile(const std::vector<TraceRecord> &training_records,
                      double accuracy_threshold,
                      std::uint64_t min_executions)
{
    // Simulate both component predictors over the training trace and
    // score each static instruction.
    struct Score
    {
        std::uint64_t executions = 0;
        std::uint64_t lastHits = 0;
        std::uint64_t strideHits = 0;
    };
    std::unordered_map<Addr, Score> scores;
    LastValuePredictor last_value;
    StridePredictor stride;

    for (const TraceRecord &record : training_records) {
        if (!record.producesValue())
            continue;
        Score &score = scores[record.pc];
        ++score.executions;
        const RawPrediction lv = last_value.lookup(record.pc);
        if (lv.hasPrediction && lv.value == record.result)
            ++score.lastHits;
        const RawPrediction st = stride.lookup(record.pc);
        const bool stride_hit =
            st.hasPrediction && st.value == record.result;
        if (stride_hit)
            ++score.strideHits;
        last_value.train(record.pc, record.result);
        stride.train(record.pc, record.result, stride_hit);
    }

    ProfileHints result;
    // lint:allow unordered-iter — per-pc transform into another map;
    // each element is independent, so visit order cannot leak out.
    for (const auto &[pc, score] : scores) {
        ValueHint hint = ValueHint::NotPredictable;
        if (score.executions >= min_executions) {
            const double denom = static_cast<double>(score.executions);
            const double last_acc =
                static_cast<double>(score.lastHits) / denom;
            const double stride_acc =
                static_cast<double>(score.strideHits) / denom;
            // Prefer the cheaper last-value table unless the stride
            // component is clearly better ([9]'s small stride table).
            if (last_acc >= accuracy_threshold &&
                last_acc + 0.05 >= stride_acc) {
                hint = ValueHint::LastValue;
            } else if (stride_acc >= accuracy_threshold) {
                hint = ValueHint::Stride;
            }
        }
        result.hints.findOrAllocate(pc).hint = hint;
        switch (hint) {
          case ValueHint::LastValue:
            ++result.numLastValue;
            break;
          case ValueHint::Stride:
            ++result.numStride;
            break;
          case ValueHint::NotPredictable:
            ++result.numNot;
            break;
        }
    }
    return result;
}

ValueHint
ProfileHints::hintFor(Addr pc) const
{
    const HintEntry *entry = hints.find(pc);
    return entry == nullptr ? ValueHint::NotPredictable : entry->hint;
}

HintedHybridPredictor::HintedHybridPredictor(
    const ProfileHints &profile_hints, std::size_t last_capacity,
    std::size_t stride_capacity)
    : profile(profile_hints),
      lastTable(last_capacity),
      strideTable(stride_capacity)
{
}

RawPrediction
HintedHybridPredictor::lookup(Addr pc)
{
    switch (profile.hintFor(pc)) {
      case ValueHint::NotPredictable:
        ++numSuppressed;
        return {};
      case ValueHint::LastValue: {
        const LastEntry *entry = lastTable.find(pc);
        if (!entry || !entry->seen)
            return {};
        return {true, entry->lastValue};
      }
      case ValueHint::Stride: {
        StrideEntry &entry = strideTable.findOrAllocate(pc);
        ++entry.inFlight;
        if (entry.timesSeen == 0)
            return {};
        const Value predicted = entry.specValue + entry.stride;
        entry.specValue = predicted; // speculative update
        return {true, predicted};
      }
    }
    panic("invalid value hint");
}

void
HintedHybridPredictor::train(Addr pc, Value actual,
                             bool spec_was_correct)
{
    switch (profile.hintFor(pc)) {
      case ValueHint::NotPredictable:
        return; // hinted-off instructions never touch the tables
      case ValueHint::LastValue: {
        LastEntry &entry = lastTable.findOrAllocate(pc);
        entry.lastValue = actual;
        entry.seen = true;
        return;
      }
      case ValueHint::Stride: {
        StrideEntry &entry = strideTable.findOrAllocate(pc);
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
        if (!spec_was_correct) {
            entry.specValue = stable
                ? actual +
                      entry.stride *
                          static_cast<Value>(entry.inFlight)
                : actual;
        }
        if (entry.timesSeen < 2)
            ++entry.timesSeen;
        return;
      }
    }
    panic("invalid value hint");
}

void
HintedHybridPredictor::abandon(Addr pc)
{
    if (profile.hintFor(pc) != ValueHint::Stride)
        return;
    StrideEntry *entry = strideTable.find(pc);
    if (entry && entry->inFlight > 0)
        --entry->inFlight;
}

StrideInfo
HintedHybridPredictor::strideInfo(Addr pc) const
{
    switch (profile.hintFor(pc)) {
      case ValueHint::NotPredictable:
        return {};
      case ValueHint::LastValue: {
        const LastEntry *entry = lastTable.find(pc);
        if (!entry || !entry->seen)
            return {};
        return {true, entry->lastValue, 0};
      }
      case ValueHint::Stride: {
        const StrideEntry *entry = strideTable.find(pc);
        if (!entry || entry->timesSeen == 0)
            return {};
        return {true, entry->specValue, entry->stride};
      }
    }
    panic("invalid value hint");
}

void
HintedHybridPredictor::reset()
{
    lastTable.clear();
    strideTable.clear();
    numSuppressed = 0;
}

} // namespace vpsim
