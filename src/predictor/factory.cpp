#include "predictor/factory.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "predictor/fcm.hpp"
#include "predictor/hybrid.hpp"
#include "predictor/last_value.hpp"
#include "predictor/profile.hpp"
#include "predictor/stride.hpp"
#include "predictor/two_delta.hpp"

namespace vpsim
{

PredictorKind
predictorKindFromString(const std::string &text)
{
    if (text == "last-value" || text == "last")
        return PredictorKind::LastValue;
    if (text == "stride")
        return PredictorKind::Stride;
    if (text == "2-delta" || text == "two-delta")
        return PredictorKind::TwoDeltaStride;
    if (text == "hybrid")
        return PredictorKind::Hybrid;
    if (text == "fcm")
        return PredictorKind::Fcm;
    fatal("unknown predictor kind '" + text + "'");
}

std::unique_ptr<ValuePredictor>
makePredictor(PredictorKind kind, std::size_t capacity)
{
    switch (kind) {
      case PredictorKind::LastValue:
        return std::make_unique<LastValuePredictor>(capacity);
      case PredictorKind::Stride:
        return std::make_unique<StridePredictor>(capacity);
      case PredictorKind::TwoDeltaStride:
        return std::make_unique<TwoDeltaStridePredictor>(capacity);
      case PredictorKind::Hybrid:
        // The hybrid's stride table is deliberately small relative to the
        // last-value table (paper §4.2). A finite table keeps at least one
        // stride entry: capacity / 8 == 0 would mean "infinite".
        return std::make_unique<HybridPredictor>(
            capacity,
            capacity == 0 ? 0 : std::max<std::size_t>(capacity / 8, 1));
      case PredictorKind::Fcm:
        return std::make_unique<FcmPredictor>(2, capacity);
    }
    panic("invalid PredictorKind");
}

std::unique_ptr<ClassifiedPredictor>
makeClassifiedPredictor(PredictorKind kind, std::size_t capacity,
                        unsigned counter_bits, MissPolicy miss_policy)
{
    return std::make_unique<ClassifiedPredictor>(kind, capacity,
                                                 counter_bits, miss_policy);
}

std::unique_ptr<ValuePredictor>
makeHintedHybridPredictor(const ProfileHints &hints,
                          std::size_t last_capacity,
                          std::size_t stride_capacity)
{
    return std::make_unique<HintedHybridPredictor>(hints, last_capacity,
                                                   stride_capacity);
}

} // namespace vpsim
