#include "predictor/classifier.hpp"

namespace vpsim
{

ClassifiedPredictor::ClassifiedPredictor(
    std::unique_ptr<ValuePredictor> raw_predictor, unsigned counter_bits,
    std::size_t counter_capacity, MissPolicy miss_policy)
    : rawPredictor(std::move(raw_predictor)),
      counterBits(counter_bits),
      missPolicy(miss_policy),
      counters(counter_capacity)
{
    panicIf(!rawPredictor, "ClassifiedPredictor needs a raw predictor");
    // Mirror SatCounter(counterBits)'s geometry for the co-located
    // fast path (the SatCounter ctor validates the width).
    const SatCounter reference(counterBits);
    counterThreshold = static_cast<std::uint16_t>(reference.max() / 2 + 1);
    counterMax = static_cast<std::uint16_t>(reference.max());
    resetOnMiss = missPolicy == MissPolicy::Reset;
}

ClassifiedPrediction
ClassifiedPredictor::predict(Addr pc)
{
    ++numLookups;
    ClassifiedPrediction result;
    const RawPrediction raw_result = rawPredictor->lookup(pc);
    if (!raw_result.hasPrediction)
        return result;
    result.rawAvailable = true;
    result.rawValue = raw_result.value;

    bool allocated = false;
    CounterEntry &entry = counters.findOrAllocate(pc, &allocated);
    if (allocated)
        entry.counter = SatCounter(counterBits);
    if (entry.counter.isSet()) {
        result.predicted = true;
        result.value = raw_result.value;
    }
    return result;
}

void
ClassifiedPredictor::update(Addr pc,
                            const ClassifiedPrediction &prediction,
                            Value actual)
{
    if (prediction.rawAvailable) {
        bool allocated = false;
        CounterEntry &entry = counters.findOrAllocate(pc, &allocated);
        if (allocated)
            entry.counter = SatCounter(counterBits);
        const bool raw_correct = prediction.rawValue == actual;
        if (raw_correct) {
            entry.counter.increment();
        } else if (missPolicy == MissPolicy::Reset) {
            entry.counter.reset();
        } else {
            entry.counter.decrement();
        }

        if (prediction.predicted) {
            if (prediction.value == actual) {
#ifndef VPSIM_MUTATION_CLASSIFIER_DROP_CORRECT
                // Mutation target (scripts/mutation_smoke.sh): building
                // with -DVPSIM_MUTATION=classifier-drop-correct drops
                // this increment, which the vp.hit_miss_balance
                // invariant must catch (made != correct + wrong).
                ++numCorrect;
#endif
            } else {
                ++numWrong;
            }
        } else if (raw_correct) {
            ++numMissed;
        }
    }
    rawPredictor->train(pc, actual,
                        prediction.rawAvailable &&
                            prediction.rawValue == actual);
    if (prediction.predicted)
        ++numPredicted;
}

void
ClassifiedPredictor::abandon(Addr pc)
{
    rawPredictor->abandon(pc);
    ++numAbandoned;
}

double
ClassifiedPredictor::accuracy() const
{
    if (numPredicted == 0)
        return 1.0;
    return static_cast<double>(numCorrect) /
           static_cast<double>(numPredicted);
}

void
ClassifiedPredictor::reset()
{
    rawPredictor->reset();
    counters.clear();
    numLookups = 0;
    numPredicted = 0;
    numCorrect = 0;
    numWrong = 0;
    numMissed = 0;
    numAbandoned = 0;
}

} // namespace vpsim
