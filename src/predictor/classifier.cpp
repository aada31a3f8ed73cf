#include "predictor/classifier.hpp"

#include "predictor/factory.hpp"

namespace vpsim
{

ClassifiedPredictor::ClassifiedPredictor(PredictorKind predictor_kind,
                                         std::size_t capacity,
                                         unsigned counter_bits,
                                         MissPolicy miss_policy)
    : kind(predictor_kind),
      rawPredictor(makePredictor(predictor_kind, capacity)),
      counters(capacity)
{
    // The SatCounter ctor validates the width.
    const SatCounter reference(counter_bits);
    counterThreshold = static_cast<std::uint16_t>(reference.max() / 2 + 1);
    counterMax = static_cast<std::uint16_t>(reference.max());
    resetOnMiss = miss_policy == MissPolicy::Reset;
}

double
ClassifiedPredictor::accuracy() const
{
    if (stats.predicted == 0)
        return 1.0;
    return static_cast<double>(predictionsCorrect()) /
           static_cast<double>(stats.predicted);
}

void
ClassifiedPredictor::reset()
{
    rawPredictor->reset();
    counters.clear();
    stats = {};
}

} // namespace vpsim
