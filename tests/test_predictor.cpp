/**
 * @file
 * Tests for the value predictors: last-value, stride, two-delta, hybrid,
 * the classification wrapper, finite table storage, and the pipelined
 * (speculative update / delayed train) behaviours the paper relies on.
 */

#include <gtest/gtest.h>

#include "predictor/factory.hpp"
#include "predictor/hybrid.hpp"
#include "predictor/last_value.hpp"
#include "predictor/stride.hpp"
#include "predictor/table_storage.hpp"
#include "predictor/two_delta.hpp"

namespace vpsim
{
namespace
{

constexpr Addr pcA = 0x1000;
constexpr Addr pcB = 0x2000;

/** Feed a sequential (predict-then-train) value stream; return hits. */
unsigned
sequentialHits(ValuePredictor &predictor, Addr pc,
               const std::vector<Value> &values)
{
    unsigned hits = 0;
    for (const Value value : values) {
        const RawPrediction raw = predictor.lookup(pc);
        if (raw.hasPrediction && raw.value == value)
            ++hits;
        predictor.train(pc, value,
                        raw.hasPrediction && raw.value == value);
    }
    return hits;
}

TEST(LastValue, PredictsRepeatedValue)
{
    LastValuePredictor predictor;
    EXPECT_EQ(sequentialHits(predictor, pcA, {7, 7, 7, 7}), 3u)
        << "first sight cannot predict; the rest repeat";
}

TEST(LastValue, FailsOnStrides)
{
    LastValuePredictor predictor;
    EXPECT_EQ(sequentialHits(predictor, pcA, {1, 2, 3, 4}), 0u);
}

TEST(LastValue, SeparatesPcs)
{
    LastValuePredictor predictor;
    predictor.train(pcA, 10);
    predictor.train(pcB, 20);
    EXPECT_EQ(predictor.lookup(pcA).value, 10u);
    EXPECT_EQ(predictor.lookup(pcB).value, 20u);
    EXPECT_EQ(predictor.tableSize(), 2u);
}

TEST(LastValue, StrideInfoIsZeroStride)
{
    LastValuePredictor predictor;
    predictor.train(pcA, 42);
    const StrideInfo info = predictor.strideInfo(pcA);
    EXPECT_TRUE(info.valid);
    EXPECT_EQ(info.lastValue, 42u);
    EXPECT_EQ(info.stride, 0u);
}

TEST(Stride, PredictsConstantSequence)
{
    StridePredictor predictor;
    EXPECT_EQ(sequentialHits(predictor, pcA, {5, 5, 5, 5, 5}), 4u)
        << "constant values are stride 0";
}

TEST(Stride, PredictsArithmeticSequence)
{
    StridePredictor predictor;
    // 10, 13, 16, ... : first is cold, second trains the stride.
    EXPECT_EQ(sequentialHits(predictor, pcA, {10, 13, 16, 19, 22}), 3u);
}

TEST(Stride, PredictsNegativeStrides)
{
    StridePredictor predictor;
    EXPECT_EQ(sequentialHits(predictor, pcA, {100, 90, 80, 70}), 2u);
}

TEST(Stride, RelearnsAfterBreak)
{
    StridePredictor predictor;
    sequentialHits(predictor, pcA, {10, 20, 30});
    // Break to a new base and stride; two samples re-establish it.
    EXPECT_EQ(sequentialHits(predictor, pcA, {1000, 1001, 1002, 1003}),
              2u);
}

TEST(Stride, SpeculativeUpdateAdvancesInFlightCopies)
{
    // The Figure 4.2 scenario: several copies of a loop-index
    // instruction are fetched together; each lookup must receive the
    // next value in the sequence X, X+d, X+2d before any of them train.
    StridePredictor predictor;
    predictor.train(pcA, 100);
    predictor.train(pcA, 110);
    EXPECT_EQ(predictor.lookup(pcA).value, 120u);
    EXPECT_EQ(predictor.lookup(pcA).value, 130u);
    EXPECT_EQ(predictor.lookup(pcA).value, 140u);
}

TEST(Stride, CorrectDelayedTrainDoesNotRewind)
{
    StridePredictor predictor;
    predictor.train(pcA, 100);
    predictor.train(pcA, 110);
    EXPECT_EQ(predictor.lookup(pcA).value, 120u);
    EXPECT_EQ(predictor.lookup(pcA).value, 130u);
    // The first copy retires correct; the table must not rewind.
    predictor.train(pcA, 120, true);
    EXPECT_EQ(predictor.lookup(pcA).value, 140u);
}

TEST(Stride, WrongTrainRepairsWithInFlightProjection)
{
    StridePredictor predictor;
    predictor.train(pcA, 100);
    predictor.train(pcA, 110);
    // Three copies in flight...
    predictor.lookup(pcA);
    predictor.lookup(pcA);
    predictor.lookup(pcA);
    // ...but the first one resolves to an unexpected value that still
    // continues the old stride afterwards (stable stride). The repair
    // must project past the two remaining in-flight copies.
    predictor.train(pcA, 200, false); // stride breaks: 200 - 110 = 90
    predictor.train(pcA, 290, false); // 290 - 200 = 90 == stride: stable
    // Remaining in flight after two trains: 1. spec = 290 + 90 = 380.
    EXPECT_EQ(predictor.lookup(pcA).value, 470u)
        << "lookup sees spec (380) + stride (90)";
}

TEST(TwoDelta, IgnoresOneOffDiscontinuity)
{
    TwoDeltaStridePredictor predictor;
    // Establish stride 1, then a single jump, then stride 1 resumes.
    sequentialHits(predictor, pcA, {1, 2, 3, 4});
    const RawPrediction after_jump = [&] {
        predictor.train(pcA, 100); // jump: candidate stride 96
        return predictor.lookup(pcA);
    }();
    // stride1 is still 1 because 96 was seen only once.
    EXPECT_EQ(after_jump.value, 101u);
}

TEST(TwoDelta, AdoptsRepeatedNewStride)
{
    TwoDeltaStridePredictor predictor;
    sequentialHits(predictor, pcA, {1, 2, 3});
    predictor.train(pcA, 10); // delta 7 (candidate)
    predictor.train(pcA, 17); // delta 7 again: promoted
    EXPECT_EQ(predictor.lookup(pcA).value, 24u);
}

TEST(Hybrid, ServesConstantsFromLastValue)
{
    HybridPredictor predictor;
    sequentialHits(predictor, pcA, {9, 9, 9, 9});
    EXPECT_GT(predictor.lastValueServed(), 0u);
    EXPECT_EQ(predictor.strideServed(), 0u)
        << "constants never promote to the stride table";
}

TEST(Hybrid, PromotesStridingInstructions)
{
    HybridPredictor predictor;
    sequentialHits(predictor, pcA, {10, 20, 30, 40, 50, 60});
    EXPECT_GT(predictor.strideServed(), 0u)
        << "two repeated nonzero strides promote the pc";
    // Once promoted, predictions follow the stride.
    EXPECT_EQ(predictor.lookup(pcA).value, 70u);
}

TEST(Hybrid, StrideTableIsSmall)
{
    // A finite stride table evicts on index conflicts while the
    // last-value table keeps serving.
    HybridPredictor predictor(0, 2);
    sequentialHits(predictor, pcA, {10, 20, 30, 40});
    const RawPrediction raw = predictor.lookup(pcB);
    EXPECT_FALSE(raw.hasPrediction) << "unknown pc has no prediction";
}

TEST(Hybrid, SmallFiniteCapacityKeepsAFiniteStrideTable)
{
    // Capacity 4 leaves the stride table one entry (not capacity / 8 ==
    // 0, which would mean "infinite"). Two alternating striding pcs then
    // evict each other's promotion before it can serve a lookup.
    const auto predictor = makePredictor(PredictorKind::Hybrid, 4);
    auto &hybrid = static_cast<HybridPredictor &>(*predictor);
    const Addr first = 0x1000;
    const Addr second = first + instBytes;
    const auto step = [&](Addr pc, Value value) {
        const RawPrediction raw = hybrid.lookup(pc);
        hybrid.train(pc, value, raw.hasPrediction && raw.value == value);
    };
    for (Value i = 0; i < 8; ++i) {
        step(first, 10 * i);
        step(second, 7 * i);
    }
    const std::uint64_t warm = hybrid.strideServed();
    for (Value i = 8; i < 64; ++i) {
        step(first, 10 * i);
        step(second, 7 * i);
    }
    EXPECT_EQ(hybrid.strideServed(), warm)
        << "a one-entry stride table cannot serve two alternating pcs";
}

TEST(Classifier, RequiresConfidenceBeforePredicting)
{
    ClassifiedPredictor classifier(PredictorKind::Stride);
    std::vector<ClassifiedPrediction> preds;
    for (const Value v : {10, 20, 30, 40, 50}) {
        const ClassifiedPrediction p = classifier.predict(pcA);
        preds.push_back(p);
        classifier.update(pcA, p, v);
    }
    EXPECT_FALSE(preds[1].predicted)
        << "counter still cold after one raw hit";
    EXPECT_TRUE(preds[3].predicted || preds[4].predicted)
        << "confidence must eventually arm on a steady stride";
    EXPECT_GT(classifier.predictionsMade(), 0u);
    EXPECT_EQ(classifier.predictionsWrong(), 0u);
}

TEST(Classifier, ResetPolicySuppressesOscillators)
{
    ClassifiedPredictor classifier(PredictorKind::Stride,
                                   0, 2, MissPolicy::Reset);
    // Alternating values defeat the stride predictor; the reset policy
    // must keep the classifier from ever issuing two wrong predictions
    // in a row.
    for (int i = 0; i < 50; ++i) {
        const Value v = (i % 2) ? 111 : 999;
        const ClassifiedPrediction p = classifier.predict(pcA);
        classifier.update(pcA, p, v);
    }
    EXPECT_LE(classifier.predictionsWrong(), 1u);
}

TEST(Classifier, DecrementPolicyIsMoreForgiving)
{
    // Last-value stream with a rare glitch: mostly-correct raw
    // predictions. A decrementing counter shrugs the glitch off; the
    // reset policy re-earns confidence from zero each time.
    ClassifiedPredictor reset_cls(PredictorKind::LastValue,
                                  0, 2, MissPolicy::Reset);
    ClassifiedPredictor dec_cls(PredictorKind::LastValue,
                                0, 2, MissPolicy::Decrement);
    for (int i = 0; i < 120; ++i) {
        const Value v = (i % 8 == 7) ? 1000u + i : 7u;
        for (ClassifiedPredictor *cls : {&reset_cls, &dec_cls}) {
            const ClassifiedPrediction p = cls->predict(pcA);
            cls->update(pcA, p, v);
        }
    }
    EXPECT_GT(dec_cls.predictionsMade(), reset_cls.predictionsMade());
}

TEST(Classifier, TracksMissedOpportunities)
{
    ClassifiedPredictor classifier(PredictorKind::Stride);
    // Second and third sightings of a constant are raw-correct but the
    // counter (0 -> 1 -> 2) only arms for the fourth.
    for (const Value v : {5, 5, 5, 5}) {
        const ClassifiedPrediction p = classifier.predict(pcA);
        classifier.update(pcA, p, v);
    }
    EXPECT_GE(classifier.missedOpportunities(), 2u);
}

TEST(Classifier, AccuracyComputation)
{
    ClassifiedPredictor classifier(PredictorKind::Stride);
    EXPECT_DOUBLE_EQ(classifier.accuracy(), 1.0) << "vacuous accuracy";
    for (const Value v : {5, 5, 5, 5, 5, 5}) {
        const ClassifiedPrediction p = classifier.predict(pcA);
        classifier.update(pcA, p, v);
    }
    EXPECT_DOUBLE_EQ(classifier.accuracy(), 1.0);
}

TEST(Classifier, ResetClearsEverything)
{
    ClassifiedPredictor classifier(PredictorKind::Stride);
    for (const Value v : {5, 5, 5, 5}) {
        const ClassifiedPrediction p = classifier.predict(pcA);
        classifier.update(pcA, p, v);
    }
    classifier.abandon(pcA);
    EXPECT_EQ(classifier.abandonedLookups(), 1u);
    classifier.reset();
    EXPECT_EQ(classifier.lookups(), 0u);
    EXPECT_EQ(classifier.abandonedLookups(), 0u);
    EXPECT_FALSE(classifier.predict(pcA).rawAvailable);
}

TEST(TableStorage, InfiniteModeKeepsEverything)
{
    PredictionTable<int> table(0);
    for (Addr pc = 0; pc < 4096; pc += 4)
        table.findOrAllocate(pc) = static_cast<int>(pc);
    EXPECT_EQ(table.size(), 1024u);
    EXPECT_EQ(*table.find(400), 400);
}

TEST(TableStorage, InfiniteFindOutsideTheWindowMisses)
{
    PredictionTable<int> table(0);
    table.findOrAllocate(pcA) = 1;
    table.findOrAllocate(pcA + 8 * instBytes) = 2;
    EXPECT_EQ(table.find(pcA - instBytes), nullptr) << "below the window";
    EXPECT_EQ(table.find(pcB), nullptr) << "above the window";
    EXPECT_EQ(table.find(pcA + instBytes), nullptr) << "unallocated slot";
    EXPECT_EQ(table.size(), 2u) << "find() never allocates";
    EXPECT_EQ(*table.find(pcA + 8 * instBytes), 2);
}

TEST(TableStorage, InfiniteRejectsAnUnalignedPc)
{
    PredictionTable<int> table(0);
    EXPECT_EXIT(table.findOrAllocate(pcA + 1),
                ::testing::ExitedWithCode(1), "not instruction aligned");
}

TEST(TableStorage, InfiniteRejectsASpanOverTheCap)
{
    PredictionTable<int> table(0);
    table.findOrAllocate(pcA);
    table.findOrAllocate(pcA + (maxDenseSpan - 1) * instBytes);
    EXPECT_EQ(table.size(), 2u) << "a span of exactly the cap fits";
    EXPECT_EXIT(table.findOrAllocate(pcA + maxDenseSpan * instBytes),
                ::testing::ExitedWithCode(1),
                "0x41000 would widen the infinite prediction table to "
                "65537 static instructions");
}

TEST(TableStorage, DirectMappedEvicts)
{
    PredictionTable<int> table(16);
    // Two pcs that collide: same index, different tags.
    const Addr first = 0;
    const Addr second = 16 * instBytes;
    table.findOrAllocate(first) = 1;
    EXPECT_NE(table.find(first), nullptr);
    bool allocated = false;
    table.findOrAllocate(second, &allocated) = 2;
    EXPECT_TRUE(allocated);
    EXPECT_EQ(table.find(first), nullptr) << "victim evicted";
    EXPECT_EQ(*table.find(second), 2);
}

TEST(TableStorage, NonPowerOfTwoCapacityDies)
{
    EXPECT_EXIT((PredictionTable<int>(12)),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(Factory, BuildsEveryKind)
{
    for (const auto kind :
         {PredictorKind::LastValue, PredictorKind::Stride,
          PredictorKind::TwoDeltaStride, PredictorKind::Hybrid}) {
        const auto predictor = makePredictor(kind);
        ASSERT_NE(predictor, nullptr);
        EXPECT_FALSE(predictor->name().empty());
    }
}

TEST(Factory, ParsesNames)
{
    EXPECT_EQ(predictorKindFromString("stride"), PredictorKind::Stride);
    EXPECT_EQ(predictorKindFromString("last-value"),
              PredictorKind::LastValue);
    EXPECT_EQ(predictorKindFromString("2-delta"),
              PredictorKind::TwoDeltaStride);
    EXPECT_EQ(predictorKindFromString("hybrid"), PredictorKind::Hybrid);
    EXPECT_EXIT(predictorKindFromString("context"),
                ::testing::ExitedWithCode(1), "unknown predictor");
}

/** Property sweep: predictors must be perfect on pure stride streams. */
class StrideStreamProperty
    : public ::testing::TestWithParam<std::tuple<PredictorKind, int>>
{
};

TEST_P(StrideStreamProperty, PerfectAfterWarmup)
{
    const auto [kind, delta] = GetParam();
    if (kind == PredictorKind::LastValue && delta != 0)
        GTEST_SKIP() << "last-value cannot track nonzero strides";
    auto predictor = makePredictor(kind);
    Value value = 1000000;
    unsigned hits = 0;
    constexpr unsigned warmup = 4;
    for (unsigned i = 0; i < 100; ++i) {
        const RawPrediction raw = predictor->lookup(pcA);
        const bool hit = raw.hasPrediction && raw.value == value;
        if (i >= warmup)
            hits += hit ? 1 : 0;
        predictor->train(pcA, value, hit);
        value += static_cast<Value>(delta);
    }
    EXPECT_EQ(hits, 96u) << "every post-warmup prediction must hit";
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, StrideStreamProperty,
    ::testing::Combine(
        ::testing::Values(PredictorKind::LastValue, PredictorKind::Stride,
                          PredictorKind::TwoDeltaStride,
                          PredictorKind::Hybrid),
        ::testing::Values(0, 1, -3, 4096)));

} // namespace
} // namespace vpsim
