/**
 * @file
 * Predictor construction from configuration.
 */

#ifndef VPSIM_PREDICTOR_FACTORY_HPP
#define VPSIM_PREDICTOR_FACTORY_HPP

#include <memory>
#include <string>

#include "predictor/classifier.hpp"
#include "predictor/value_predictor.hpp"

namespace vpsim
{

/** Parse "last-value" / "stride" / "2-delta" / "hybrid" / "fcm". */
PredictorKind predictorKindFromString(const std::string &text);

/** Construct a raw predictor (capacity 0 = infinite tables). */
std::unique_ptr<ValuePredictor> makePredictor(PredictorKind kind,
                                              std::size_t capacity = 0);

/**
 * Construct the paper's standard configuration: the chosen raw predictor
 * behind a 2-bit saturating-counter classifier (§3.1, §5).
 */
std::unique_ptr<ClassifiedPredictor>
makeClassifiedPredictor(PredictorKind kind, std::size_t capacity = 0,
                        unsigned counter_bits = 2,
                        MissPolicy miss_policy = MissPolicy::Reset);

class ProfileHints;

/**
 * Construct the §4.2 profile-hinted hybrid (last-value + stride tables
 * gated by compiler hints instead of confidence counters).
 *
 * @param hints The profile; the caller keeps it alive.
 */
std::unique_ptr<ValuePredictor>
makeHintedHybridPredictor(const ProfileHints &hints,
                          std::size_t last_capacity = 0,
                          std::size_t stride_capacity = 1024);

} // namespace vpsim

#endif // VPSIM_PREDICTOR_FACTORY_HPP
