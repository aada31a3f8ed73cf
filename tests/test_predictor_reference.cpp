/**
 * @file
 * The classified stride predictor against an independent reference.
 *
 * NaiveClassifiedStride below re-derives the paper's stride predictor
 * (§3.1: last value + stride, speculatively advanced per lookup and
 * repaired only after a wrong speculation) and its 2-bit confidence
 * counter (reset or decrement on a raw miss) from the description
 * alone, over std::map storage. It shares no code with src/predictor/.
 * The tests fuzz ClassifiedPredictor (split calls) and its inline kernel
 * (fused calls) against it: fused streams, split streams with copies
 * in flight retired in order, table-merged copies of one instruction,
 * squashed (abandoned) lookups, and finite tables.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "predictor/factory.hpp"

namespace vpsim
{
namespace
{

/** The reference: a stride predictor gated by a 2-bit counter. */
class NaiveClassifiedStride
{
  public:
    /** @param capacity 0 = one entry per pc; else direct-mapped. */
    NaiveClassifiedStride(std::size_t capacity, bool reset_on_miss)
        : capacity(capacity), resetOnMiss(reset_on_miss)
    {
    }

    ClassifiedPrediction
    predict(Addr pc)
    {
        ++lookups;
        StrideState &state = strideFor(pc);
        ++state.inFlight;
        ClassifiedPrediction out;
        if (state.outcomes == 0)
            return out;
        state.speculated += state.stride;
        out.rawAvailable = true;
        out.rawValue = state.speculated;
        if (counterFor(pc) >= 2) {
            out.predicted = true;
            out.value = state.speculated;
        }
        return out;
    }

    void
    update(Addr pc, const ClassifiedPrediction &prediction, Value actual)
    {
        const bool raw_hit =
            prediction.rawAvailable && prediction.rawValue == actual;
        if (prediction.rawAvailable) {
            int &counter = counterFor(pc);
            if (raw_hit)
                counter = counter < 3 ? counter + 1 : 3;
            else
                counter = resetOnMiss ? 0 : (counter > 0 ? counter - 1 : 0);
            if (prediction.predicted) {
                ++made;
                if (raw_hit)
                    ++correct;
            }
        }
        StrideState &state = strideFor(pc);
        if (state.inFlight > 0)
            --state.inFlight;
        bool steady = false;
        if (state.outcomes > 0) {
            const Value delta = actual - state.last;
            steady = delta == state.stride;
            state.stride = delta;
        }
        state.last = actual;
        if (!raw_hit) {
            // Re-predict the copies still in flight along a steady
            // stride; otherwise restart from the real value.
            state.speculated = actual;
            if (steady)
                for (std::uint32_t i = 0; i < state.inFlight; ++i)
                    state.speculated += state.stride;
        }
        if (state.outcomes < 2)
            ++state.outcomes;
    }

    void
    abandon(Addr pc)
    {
        const auto found = strides.find(slotOf(pc));
        if (found != strides.end() && found->second.pc == pc &&
            found->second.inFlight > 0)
            --found->second.inFlight;
    }

    std::uint64_t lookups = 0;
    std::uint64_t made = 0;
    std::uint64_t correct = 0;

  private:
    struct StrideState
    {
        Addr pc = 0;
        Value last = 0;
        Value speculated = 0;
        Value stride = 0;
        int outcomes = 0;
        std::uint32_t inFlight = 0;
    };

    struct CounterState
    {
        Addr pc = 0;
        int count = 0;
    };

    Addr
    slotOf(Addr pc) const
    {
        return capacity == 0 ? pc : (pc / 4) % capacity;
    }

    /** The pc's stride state; a different pc in its slot is evicted. */
    StrideState &
    strideFor(Addr pc)
    {
        StrideState &state = strides[slotOf(pc)];
        if (state.pc != pc || !seenSlot[slotOf(pc)]) {
            state = StrideState{};
            state.pc = pc;
            seenSlot[slotOf(pc)] = true;
        }
        return state;
    }

    int &
    counterFor(Addr pc)
    {
        CounterState &state = counters[slotOf(pc)];
        if (state.pc != pc || !seenCounter[slotOf(pc)]) {
            state = CounterState{};
            state.pc = pc;
            seenCounter[slotOf(pc)] = true;
        }
        return state.count;
    }

    std::size_t capacity;
    bool resetOnMiss;
    std::map<Addr, StrideState> strides;
    std::map<Addr, bool> seenSlot;
    std::map<Addr, CounterState> counters;
    std::map<Addr, bool> seenCounter;
};

/** Per-pc value sources: constants, strides, noisy and alternating. */
class ValueStreams
{
  public:
    explicit ValueStreams(std::uint64_t seed) : rng(seed)
    {
        for (std::size_t i = 0; i < 48; ++i)
            pcs.push_back(0x4000 + i * instBytes);
    }

    Addr pickPc() { return pcs[rng.nextBelow(pcs.size())]; }

    Value
    next(Addr pc)
    {
        Value &value = current[pc];
        switch ((pc / instBytes) % 4) {
          case 0: break;                                // constant
          case 1: value += 8; break;                    // strided
          case 2:                                       // mostly stable
            if (rng.nextBelow(5) == 0)
                value = rng.nextBelow(1 << 16);
            break;
          default: value = value == 3 ? 900 : 3; break; // alternating
        }
        return value;
    }

    Rng rng;

  private:
    std::vector<Addr> pcs;
    std::map<Addr, Value> current;
};

struct ReferenceCase
{
    std::size_t capacity;
    MissPolicy policy;
};

class PredictorReference : public ::testing::TestWithParam<ReferenceCase>
{
  protected:
    ClassifiedPredictor
    makeKernelSide() const
    {
        return ClassifiedPredictor(PredictorKind::Stride,
                                   GetParam().capacity, 2,
                                   GetParam().policy);
    }

    NaiveClassifiedStride
    makeReference() const
    {
        return NaiveClassifiedStride(GetParam().capacity,
                                     GetParam().policy == MissPolicy::Reset);
    }
};

void
expectSame(const ClassifiedPrediction &reference,
           const ClassifiedPrediction &kernel, int event)
{
    ASSERT_EQ(reference.rawAvailable, kernel.rawAvailable)
        << "event " << event;
    ASSERT_EQ(reference.predicted, kernel.predicted) << "event " << event;
    if (reference.rawAvailable) {
        ASSERT_EQ(reference.rawValue, kernel.rawValue) << "event " << event;
    }
    if (reference.predicted) {
        ASSERT_EQ(reference.value, kernel.value) << "event " << event;
    }
}

TEST_P(PredictorReference, FusedKernelMatches)
{
    ClassifiedPredictor predictor = makeKernelSide();
    NaiveClassifiedStride reference = makeReference();
    ValueStreams streams(0x51de ^ GetParam().capacity);
    predictor.withKernel([&](auto &kernel) {
        for (int event = 0; event < 30000; ++event) {
            const Addr pc = streams.pickPc();
            const Value value = streams.next(pc);
            const ClassifiedPrediction expected = reference.predict(pc);
            reference.update(pc, expected, value);
            const VpOutcome outcome = kernel.predictAndTrain(pc, value);
            ASSERT_EQ(expected.predicted, outcome.predicted)
                << "event " << event;
            ASSERT_EQ(expected.predicted && expected.value == value,
                      outcome.correct)
                << "event " << event;
        }
    });
    EXPECT_EQ(predictor.lookups(), reference.lookups);
    EXPECT_EQ(predictor.predictionsMade(), reference.made);
    EXPECT_EQ(predictor.predictionsCorrect(), reference.correct);
    EXPECT_EQ(predictor.predictionsWrong(), reference.made - reference.correct);
}

TEST_P(PredictorReference, InFlightCopiesRetireInOrder)
{
    // A window of in-flight lookups trained at retire in program order
    // (VpUpdateTiming::Retire), with squashed lookups abandoned from
    // the young end (wrong-path fetch).
    struct InFlight
    {
        Addr pc;
        Value actual;
        ClassifiedPrediction reference;
        ClassifiedPrediction kernel;
    };
    ClassifiedPredictor predictor = makeKernelSide();
    NaiveClassifiedStride reference = makeReference();
    ValueStreams streams(0xf11e ^ GetParam().capacity);
    std::deque<InFlight> window;
    for (int event = 0; event < 40000; ++event) {
        const std::uint64_t roll = streams.rng.nextBelow(10);
        if (roll < 5 && window.size() < 24) {
            const Addr pc = streams.pickPc();
            InFlight entry{pc, streams.next(pc), reference.predict(pc),
                           predictor.predict(pc)};
            ASSERT_NO_FATAL_FAILURE(
                expectSame(entry.reference, entry.kernel, event));
            window.push_back(entry);
        } else if (roll < 9 && !window.empty()) {
            const InFlight &oldest = window.front();
            reference.update(oldest.pc, oldest.reference, oldest.actual);
            predictor.update(oldest.pc, oldest.kernel, oldest.actual);
            window.pop_front();
        } else if (!window.empty()) {
            reference.abandon(window.back().pc);
            predictor.abandon(window.back().pc);
            window.pop_back();
        }
    }
    EXPECT_EQ(predictor.lookups(), reference.lookups);
    EXPECT_EQ(predictor.predictionsMade(), reference.made);
    EXPECT_EQ(predictor.predictionsCorrect(), reference.correct);
}

TEST_P(PredictorReference, MergedCopiesOfOneInstruction)
{
    // The §4 interleaved table serves every copy of one instruction in a
    // bundle from one access: k lookups of the same pc back to back,
    // then k updates in order.
    ClassifiedPredictor predictor = makeKernelSide();
    NaiveClassifiedStride reference = makeReference();
    ValueStreams streams(0xc0b1 ^ GetParam().capacity);
    int event = 0;
    for (int bundle = 0; bundle < 6000; ++bundle) {
        const Addr pc = streams.pickPc();
        const std::size_t copies = 1 + streams.rng.nextBelow(4);
        std::vector<Value> actual;
        std::vector<ClassifiedPrediction> expected;
        std::vector<ClassifiedPrediction> got;
        for (std::size_t copy = 0; copy < copies; ++copy, ++event) {
            actual.push_back(streams.next(pc));
            expected.push_back(reference.predict(pc));
            got.push_back(predictor.predict(pc));
            ASSERT_NO_FATAL_FAILURE(
                expectSame(expected.back(), got.back(), event));
        }
        for (std::size_t copy = 0; copy < copies; ++copy) {
            reference.update(pc, expected[copy], actual[copy]);
            predictor.update(pc, got[copy], actual[copy]);
        }
    }
    EXPECT_EQ(predictor.predictionsMade(), reference.made);
    EXPECT_EQ(predictor.predictionsCorrect(), reference.correct);
}

INSTANTIATE_TEST_SUITE_P(
    Tables, PredictorReference,
    ::testing::Values(ReferenceCase{0, MissPolicy::Reset},
                      ReferenceCase{0, MissPolicy::Decrement},
                      ReferenceCase{16, MissPolicy::Reset},
                      ReferenceCase{16, MissPolicy::Decrement}),
    [](const auto &info) {
        return (info.param.capacity == 0
                    ? std::string("infinite")
                    : "finite" + std::to_string(info.param.capacity)) +
               (info.param.policy == MissPolicy::Reset ? "Reset"
                                                       : "Decrement");
    });

} // namespace
} // namespace vpsim
