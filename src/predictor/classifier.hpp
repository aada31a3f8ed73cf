/**
 * @file
 * Saturating-counter classification for value prediction ([14], [8];
 * paper §3.1 and §5 use a 2-bit counter per instruction).
 *
 * The classifier gates a raw predictor: a prediction is only *used* when
 * the instruction's confidence counter is in the upper half of its range.
 * The counter trains on the raw predictor's correctness whether or not
 * the prediction was used.
 *
 * Every operation is one inline kernel per raw predictor kind
 * (ClassifiedPredictor::Kernel<Raw>): the raw predictor is a
 * compile-time parameter, so the kernel makes no indirect call. A
 * machine picks the kernel once per run with withKernel(); the
 * predictor's own predict()/update()/predictAndTrain() pick it per
 * call.
 */

#ifndef VPSIM_PREDICTOR_CLASSIFIER_HPP
#define VPSIM_PREDICTOR_CLASSIFIER_HPP

#include <memory>

#include "common/sat_counter.hpp"
#include "predictor/fcm.hpp"
#include "predictor/hybrid.hpp"
#include "predictor/last_value.hpp"
#include "predictor/stride.hpp"
#include "predictor/table_storage.hpp"
#include "predictor/two_delta.hpp"
#include "predictor/value_predictor.hpp"

namespace vpsim
{

/**
 * One classified prediction, carried with the in-flight instruction
 * from predict() to its update().
 */
struct ClassifiedPrediction
{
    /** The machine should speculate on @c value. */
    bool predicted = false;
    /** Predicted destination value (valid when @c predicted). */
    Value value = 0;
    /** The raw predictor had history (even if confidence gated it off). */
    bool rawAvailable = false;
    /** The raw predictor's value, used to train the classifier. */
    Value rawValue = 0;
};

/** What a machine reads from one fused predict-and-train. */
struct VpOutcome
{
    /** The machine speculated on a predicted value. */
    bool predicted = false;
    /** The speculated value was the real one. */
    bool correct = false;
};

/** What a wrong raw prediction does to the confidence counter. */
enum class MissPolicy
{
    /** Decrement by one (plain up/down counter). */
    Decrement,
    /**
     * Reset to zero. A misprediction costs real cycles (the dependents
     * reissue), so confidence must be re-earned; this keeps instructions
     * with oscillating values from repeatedly speculating wrongly.
     */
    Reset,
};

/** A raw value predictor gated by per-instruction confidence counters. */
class ClassifiedPredictor
{
  public:
    /**
     * @param kind The raw predictor, built with makePredictor().
     * @param capacity 0 = infinite tables (paper's assumption: a raw
     *        entry and a counter per static instruction); else the
     *        power-of-two size of the raw table and of the counter
     *        table.
     * @param counter_bits Saturating-counter width (paper: 2).
     * @param miss_policy Counter reaction to a wrong raw prediction.
     */
    explicit ClassifiedPredictor(PredictorKind kind,
                                 std::size_t capacity = 0,
                                 unsigned counter_bits = 2,
                                 MissPolicy miss_policy = MissPolicy::Reset);

    template <typename Raw>
    class Kernel;

    /**
     * Call @p body with the kernel of this predictor's raw kind, chosen
     * once: body(Kernel<Raw> &).
     */
    template <typename Body>
    decltype(auto)
    withKernel(Body &&body)
    {
        switch (kind) {
          case PredictorKind::LastValue:
            return run<LastValuePredictor>(body);
          case PredictorKind::Stride:
            return run<StridePredictor>(body);
          case PredictorKind::TwoDeltaStride:
            return run<TwoDeltaStridePredictor>(body);
          case PredictorKind::Hybrid:
            return run<HybridPredictor>(body);
          case PredictorKind::Fcm:
            return run<FcmPredictor>(body);
        }
        panic("invalid PredictorKind");
    }

    /** @name The kernel's operations, dispatched per call */
    /// @{
    /** Look up and classification-gate a prediction for @p pc. */
    ClassifiedPrediction predict(Addr pc);

    /**
     * Train with the actual outcome. Must be called exactly once per
     * predict(), with the ClassifiedPrediction that predict() returned.
     */
    void update(Addr pc, const ClassifiedPrediction &prediction,
                Value actual);

    /**
     * Fused predict() + update() for callers that verify immediately:
     * the same state machine with no copy in flight, on one table
     * probe.
     */
    VpOutcome predictAndTrain(Addr pc, Value actual);

    /**
     * Release a prediction whose instruction was squashed: the raw
     * predictor's in-flight slot is freed; confidence counters are
     * untouched (hardware trains at verify, which never happens).
     */
    void abandon(Addr pc);
    /// @}

    /** Forget all predictor and classifier state. */
    void reset();

    /** @name Statistics */
    /// @{
    /** predict() and predictAndTrain() calls. */
    std::uint64_t lookups() const { return stats.lookups; }
    /** Gated predictions issued. */
    std::uint64_t predictionsMade() const { return stats.predicted; }
    /** Gated predictions that were correct. */
    std::uint64_t
    predictionsCorrect() const
    {
        return stats.outcomes[predictedRight];
    }
    /** Gated predictions that were wrong (cost a penalty). */
    std::uint64_t
    predictionsWrong() const
    {
        return stats.outcomes[predictedWrong];
    }
    /** Raw-correct outcomes the classifier declined to use. */
    std::uint64_t
    missedOpportunities() const
    {
        return stats.outcomes[declinedRight];
    }
    /** Squashed (wrong-path) lookups released without training. */
    std::uint64_t abandonedLookups() const { return stats.abandoned; }
    /** Accuracy of issued predictions (1.0 when none issued). */
    double accuracy() const;
    /// @}

  private:
    struct CounterEntry
    {
        ClassifierState state;
    };

    /** @name Outcomes of a trained prediction, as tally slots */
    /// @{
    static constexpr unsigned declinedWrong = 0;
    static constexpr unsigned declinedRight = 1;
    static constexpr unsigned predictedWrong = 2;
    static constexpr unsigned predictedRight = 3;
    /// @}

    struct Stats
    {
        std::uint64_t lookups = 0;
        std::uint64_t predicted = 0;
        std::uint64_t outcomes[4] = {0, 0, 0, 0};
        std::uint64_t abandoned = 0;
    };

    template <typename Raw, typename Body>
    decltype(auto)
    run(Body &body)
    {
        Kernel<Raw> kernel(*this, static_cast<Raw &>(*rawPredictor));
        return body(kernel);
    }

    PredictorKind kind;
    std::unique_ptr<ValuePredictor> rawPredictor;
    /** @name Counter geometry (from the width and the miss policy) */
    /// @{
    std::uint16_t counterThreshold = 2;
    std::uint16_t counterMax = 3;
    bool resetOnMiss = true;
    /// @}
    /**
     * Counters for raw predictors that keep none in their entries:
     * finite tables, the hybrid and FCM (see ClassifierState).
     */
    PredictionTable<CounterEntry> counters;
    Stats stats;
};

/**
 * The classified predictor over raw predictor @p Raw: every call is
 * inline and reaches the raw predictor with no indirect call. It keeps
 * its own copy of the counter geometry, which the counter stores in
 * the tables could otherwise alias.
 */
template <typename Raw>
class ClassifiedPredictor::Kernel
{
  public:
    Kernel(ClassifiedPredictor &classified, Raw &raw_predictor)
        : owner(classified), raw(raw_predictor),
          threshold(classified.counterThreshold),
          max(classified.counterMax), resetOnMiss(classified.resetOnMiss),
          counts(classified.stats)
    {
    }

    /** ClassifiedPredictor::predictAndTrain(). */
    VpOutcome
    predictAndTrain(Addr pc, Value actual)
    {
        ++counts.lookups;
        ClassifierState *cls = nullptr;
        RawPrediction raw_result;
        if constexpr (colocates) {
            raw_result = raw.lookupTrain(pc, actual, cls);
        } else {
            raw_result = raw.lookup(pc);
            raw.train(pc, actual,
                      raw_result.hasPrediction && raw_result.value == actual);
        }
        if (!raw_result.hasPrediction)
            return {};
        if (!cls)
            cls = &ownCounter(pc);

        // Straight-line bookkeeping: correctness flips with the
        // simulated values, so branches here would mispredict on the
        // hot path. When a prediction is issued its value is the raw
        // value, so value-correct and raw-correct coincide.
        const std::uint16_t count = cls->count;
        const bool predicted = count >= threshold;
        const bool raw_correct = raw_result.value == actual;
        cls->count = trained(count, raw_correct);
        tally(predicted, raw_correct);
        return {predicted, predicted && raw_correct};
    }

    /** ClassifiedPredictor::predict(). */
    ClassifiedPrediction
    predict(Addr pc)
    {
        ++counts.lookups;
        ClassifiedPrediction result;
        const RawPrediction raw_result = raw.lookup(pc);
        if (!raw_result.hasPrediction)
            return result;
        result.rawAvailable = true;
        result.rawValue = raw_result.value;
        if (counter(pc).count >= threshold) {
            result.predicted = true;
            result.value = raw_result.value;
        }
        return result;
    }

    /** ClassifiedPredictor::update(). */
    void
    update(Addr pc, const ClassifiedPrediction &prediction, Value actual)
    {
        const bool raw_correct =
            prediction.rawAvailable && prediction.rawValue == actual;
        // Train first: it allocates the entry whose counter is read.
        raw.train(pc, actual, raw_correct);
        if (!prediction.rawAvailable)
            return;
        ClassifierState &cls = counter(pc);
        cls.count = trained(cls.count, raw_correct);
        // A prediction's value is the raw value, so its correctness is
        // raw_correct.
        tally(prediction.predicted, raw_correct);
    }

    /** The raw predictor's stride state (value distributor, §4.2). */
    StrideInfo strideInfo(Addr pc) const { return raw.strideInfo(pc); }

    /** ClassifiedPredictor::abandon(). */
    void
    abandon(Addr pc)
    {
        raw.abandon(pc);
        ++counts.abandoned;
    }

  private:
    /** Raw keeps the counter in its entries (infinite tables). */
    static constexpr bool colocates =
        requires(Raw &r, Addr pc) { r.classifierSlot(pc); };

    /** The classifier's own counter for @p pc, allocated fresh (0). */
    ClassifierState &
    ownCounter(Addr pc)
    {
        return owner.counters.findOrAllocate(pc).state;
    }

    /** @p pc's counter, wherever it lives. */
    ClassifierState &
    counter(Addr pc)
    {
        if constexpr (colocates) {
            if (ClassifierState *cls = raw.classifierSlot(pc))
                return *cls;
        }
        return ownCounter(pc);
    }

    /** SatCounter::train over the raw count. */
    std::uint16_t
    trained(std::uint16_t count, bool raw_correct) const
    {
        const std::uint16_t raised =
            count < max ? static_cast<std::uint16_t>(count + 1) : count;
        const std::uint16_t dropped =
            count > 0 ? static_cast<std::uint16_t>(count - 1) : count;
        return raw_correct ? raised : resetOnMiss ? 0 : dropped;
    }

    /**
     * Count one trained prediction: two increments, whatever the
     * outcome (the lookup is counted where it happens).
     */
    void
    tally(bool predicted, bool raw_correct)
    {
        counts.predicted += predicted ? 1 : 0;
        unsigned outcome = (predicted ? 2u : 0u) + (raw_correct ? 1u : 0u);
#ifdef VPSIM_MUTATION_CLASSIFIER_DROP_CORRECT
        // Mutation target (scripts/mutation_smoke.sh): building with
        // -DVPSIM_MUTATION=classifier-drop-correct files correct
        // predictions where no statistic reads them, which the
        // vp.hit_miss_balance invariant must catch (made != correct +
        // wrong).
        outcome = outcome == predictedRight ? declinedWrong : outcome;
#endif
        ++counts.outcomes[outcome];
    }

    ClassifiedPredictor &owner;
    Raw &raw;
    const std::uint16_t threshold;
    const std::uint16_t max;
    const bool resetOnMiss;
    Stats &counts;
};

inline ClassifiedPrediction
ClassifiedPredictor::predict(Addr pc)
{
    return withKernel([&](auto &kernel) { return kernel.predict(pc); });
}

inline void
ClassifiedPredictor::update(Addr pc, const ClassifiedPrediction &prediction,
                            Value actual)
{
    withKernel([&](auto &kernel) { kernel.update(pc, prediction, actual); });
}

inline VpOutcome
ClassifiedPredictor::predictAndTrain(Addr pc, Value actual)
{
    return withKernel(
        [&](auto &kernel) { return kernel.predictAndTrain(pc, actual); });
}

inline void
ClassifiedPredictor::abandon(Addr pc)
{
    withKernel([&](auto &kernel) { kernel.abandon(pc); });
}

} // namespace vpsim

#endif // VPSIM_PREDICTOR_CLASSIFIER_HPP
