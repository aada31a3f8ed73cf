/**
 * @file
 * Tests for the Section 4 hardware: address router (merging, bank
 * conflicts, priority), value distributor (stride expansion, Figure 4.2)
 * and the accounting invariants of the interleaved prediction table.
 */

#include <gtest/gtest.h>

#include "predictor/factory.hpp"
#include "vptable/interleaved_table.hpp"

namespace vpsim
{
namespace
{

/** A table whose classifier is pre-warmed on a stride sequence. */
std::unique_ptr<InterleavedVpTable>
warmedTable(const VpTableConfig &config, Addr pc, Value base,
            Value stride, int warmup = 8)
{
    auto table = std::make_unique<InterleavedVpTable>(
        makeClassifiedPredictor(PredictorKind::Stride), config);
    Value value = base;
    for (int i = 0; i < warmup; ++i) {
        const auto grants = table->processBundle({pc});
        table->update(pc, grants[0].prediction, value);
        value += stride;
    }
    return table;
}

TEST(Router, DistinctPcsInDistinctBanksAllGranted)
{
    VpTableConfig config;
    config.banks = 4;
    auto table = std::make_unique<InterleavedVpTable>(
        makeClassifiedPredictor(PredictorKind::Stride), config);
    // pcs map to banks (pc/4) % 4 = 0,1,2,3.
    const auto grants = table->processBundle({0x0, 0x4, 0x8, 0xc});
    for (const VpGrant &grant : grants)
        EXPECT_TRUE(grant.granted);
    EXPECT_EQ(table->deniedRequests(), 0u);
    EXPECT_EQ(table->accesses(), 4u);
}

TEST(Router, BankConflictDeniesLowerPriorityRequest)
{
    VpTableConfig config;
    config.banks = 4;
    config.portsPerBank = 1;
    auto table = std::make_unique<InterleavedVpTable>(
        makeClassifiedPredictor(PredictorKind::Stride), config);
    // 0x0 and 0x10 both map to bank 0; trace order gives 0x0 priority.
    const auto grants = table->processBundle({0x0, 0x10});
    EXPECT_TRUE(grants[0].granted);
    EXPECT_FALSE(grants[1].granted);
    EXPECT_EQ(table->deniedAccesses(), 1u);
    EXPECT_EQ(table->deniedRequests(), 1u);
}

TEST(Router, ExtraPortsResolveConflicts)
{
    VpTableConfig config;
    config.banks = 4;
    config.portsPerBank = 2;
    auto table = std::make_unique<InterleavedVpTable>(
        makeClassifiedPredictor(PredictorKind::Stride), config);
    const auto grants = table->processBundle({0x0, 0x10, 0x20});
    EXPECT_TRUE(grants[0].granted);
    EXPECT_TRUE(grants[1].granted);
    EXPECT_FALSE(grants[2].granted) << "third copy exceeds two ports";
}

TEST(Router, DuplicatePcsAreMergedNotDenied)
{
    VpTableConfig config;
    config.banks = 4;
    config.portsPerBank = 1;
    auto table = std::make_unique<InterleavedVpTable>(
        makeClassifiedPredictor(PredictorKind::Stride), config);
    // Three copies of one instruction (a loop fetched three times per
    // cycle): one merged access, not three conflicting ones.
    const auto grants = table->processBundle({0x0, 0x0, 0x0});
    EXPECT_TRUE(grants[0].granted);
    EXPECT_TRUE(grants[1].granted);
    EXPECT_TRUE(grants[2].granted);
    EXPECT_FALSE(grants[0].merged) << "lead copy is the real access";
    EXPECT_TRUE(grants[1].merged);
    EXPECT_TRUE(grants[2].merged);
    EXPECT_EQ(table->accesses(), 1u);
    EXPECT_EQ(table->mergedRequests(), 2u);
    EXPECT_EQ(table->deniedRequests(), 0u);
}

TEST(Distributor, ExpandsStrideSequenceForMergedCopies)
{
    // Figure 4.2: three iterations of a loop containing "i++" are
    // fetched together; the distributor must produce X, X+d, X+2d.
    VpTableConfig config;
    config.banks = 8;
    auto table = warmedTable(config, 0x100, 1000, 8);
    const auto grants = table->processBundle({0x100, 0x100, 0x100});
    ASSERT_TRUE(grants[0].prediction.predicted);
    ASSERT_TRUE(grants[1].prediction.predicted);
    ASSERT_TRUE(grants[2].prediction.predicted);
    const Value x = grants[0].prediction.value;
    EXPECT_EQ(grants[1].prediction.value, x + 8);
    EXPECT_EQ(grants[2].prediction.value, x + 16);
    EXPECT_EQ(table->distributorAdditions(), 2u)
        << "two non-lead copies with nonzero stride need additions";
}

TEST(Distributor, LastValueMergeNeedsNoArithmetic)
{
    VpTableConfig config;
    config.banks = 8;
    auto table = std::make_unique<InterleavedVpTable>(
        makeClassifiedPredictor(PredictorKind::LastValue), config);
    for (int i = 0; i < 8; ++i) {
        const auto grants = table->processBundle({0x100});
        table->update(0x100, grants[0].prediction, 77);
    }
    const auto grants = table->processBundle({0x100, 0x100, 0x100});
    EXPECT_EQ(grants[0].prediction.value, 77u);
    EXPECT_EQ(grants[1].prediction.value, 77u);
    EXPECT_EQ(grants[2].prediction.value, 77u);
    EXPECT_EQ(table->distributorAdditions(), 0u)
        << "the same value is broadcast, no additions (paper §4.2)";
}

TEST(Distributor, MixedBundleGrantsAndExpands)
{
    VpTableConfig config;
    config.banks = 2;
    auto table = warmedTable(config, 0x0, 50, 5);
    // Bundle: two copies of 0x0 (bank 0), one 0x4 (bank 1), one 0x8
    // (bank 0 -> conflicts with the 0x0 group and is denied).
    const auto grants = table->processBundle({0x0, 0x0, 0x4, 0x8});
    EXPECT_TRUE(grants[0].granted);
    EXPECT_TRUE(grants[1].granted);
    EXPECT_TRUE(grants[2].granted);
    EXPECT_FALSE(grants[3].granted);
    EXPECT_TRUE(grants[1].merged);
    EXPECT_FALSE(grants[2].merged);
}

TEST(Accounting, RouterNeverLosesRequests)
{
    VpTableConfig config;
    config.banks = 2;
    auto table = std::make_unique<InterleavedVpTable>(
        makeClassifiedPredictor(PredictorKind::Stride), config);
    std::uint64_t granted = 0;
    std::uint64_t total = 0;
    const std::vector<std::vector<Addr>> bundles = {
        {0x0, 0x0, 0x4, 0x8, 0xc, 0x10},
        {0x4, 0x4, 0x4},
        {0x0},
        {0x8, 0x10, 0x18, 0x20},
    };
    for (const auto &bundle : bundles) {
        const auto grants = table->processBundle(bundle);
        total += bundle.size();
        for (const VpGrant &grant : grants)
            granted += grant.granted ? 1 : 0;
    }
    // Conservation: every request is granted or denied, never lost.
    EXPECT_EQ(table->requests(), total);
    EXPECT_EQ(granted + table->deniedRequests(), total);
    // Groups: accesses = distinct pcs per bundle, bounded by requests.
    EXPECT_LE(table->accesses(), table->requests());
    EXPECT_EQ(table->mergedRequests(),
              table->requests() - table->accesses());
}

TEST(Accounting, SingleInstructionBundleIsOneAccess)
{
    auto table = std::make_unique<InterleavedVpTable>(
        makeClassifiedPredictor(PredictorKind::Stride), VpTableConfig{});
    table->processBundle({0x40});
    EXPECT_EQ(table->requests(), 1u);
    EXPECT_EQ(table->accesses(), 1u);
    EXPECT_EQ(table->mergedRequests(), 0u);
    EXPECT_EQ(table->deniedRequests(), 0u);
}

TEST(Accounting, EmptyBundleIsFree)
{
    auto table = std::make_unique<InterleavedVpTable>(
        makeClassifiedPredictor(PredictorKind::Stride), VpTableConfig{});
    const auto grants = table->processBundle({});
    EXPECT_TRUE(grants.empty());
    EXPECT_EQ(table->requests(), 0u);
}

TEST(Config, ZeroBanksDies)
{
    VpTableConfig config;
    config.banks = 0;
    EXPECT_EXIT((InterleavedVpTable{
                    makeClassifiedPredictor(PredictorKind::Stride),
                    config}),
                ::testing::ExitedWithCode(1), "bank count");
}

TEST(Router, InterleavedDuplicatesAcrossBanksWithHints)
{
    // Profile: 0x100 strides by 8, 0x104 is constant, 0x110 strides by
    // 3, 0x120 strides by 1, 0x108 is noise (hinted NotPredictable).
    std::vector<TraceRecord> training;
    Value noise = 7;
    for (int i = 0; i < 16; ++i) {
        noise = noise * 6364136223846793005ull + 1442695040888963407ull;
        const Value v = static_cast<Value>(i);
        for (const auto &[pc, result] :
             {std::pair<Addr, Value>{0x100, 1000 + 8 * v},
              {0x104, 9},
              {0x108, noise},
              {0x110, 50 + 3 * v},
              {0x120, 7 + v}}) {
            TraceRecord record;
            record.pc = pc;
            record.op = OpCode::Addi;
            record.rd = 1;
            record.result = result;
            training.push_back(record);
        }
    }
    const ProfileHints hints = ProfileHints::profile(training);
    ASSERT_EQ(hints.hintFor(0x108), ValueHint::NotPredictable);

    VpTableConfig config;
    config.banks = 4; // bank 0: 0x100 0x110 0x120; bank 1: 0x104
    config.portsPerBank = 2;
    config.hints = &hints;
    InterleavedVpTable table(
        makeClassifiedPredictor(PredictorKind::Stride), config);
    for (const TraceRecord &record : training) {
        const auto warm = table.processBundle({record.pc});
        if (warm[0].granted)
            table.update(record.pc, warm[0].prediction, record.result);
    }
    const std::uint64_t requests = table.requests();
    const std::uint64_t merged = table.mergedRequests();
    const std::uint64_t denied = table.deniedRequests();
    const std::uint64_t additions = table.distributorAdditions();
    const std::uint64_t filtered = table.hintFilteredRequests();

    const auto grants = table.processBundle({0x100, 0x104, 0x108, 0x100,
                                             0x110, 0x120, 0x104, 0x100,
                                             0x120, 0x108, 0x110});
    ASSERT_EQ(grants.size(), 11u);
    struct Expected
    {
        bool granted;
        bool merged;
        Value value;
    };
    // Lead order 0x100, 0x104, 0x110, 0x120; bank 0's two ports go to
    // 0x100 and 0x110, so both 0x120 copies are denied. Merged copies
    // of a striding pc receive X, X+stride, X+2*stride.
    const Expected expected[] = {
        {true, false, 1128}, {true, false, 9}, {false, false, 0},
        {true, true, 1136},  {true, false, 98}, {false, false, 0},
        {true, true, 9},     {true, true, 1144}, {false, false, 0},
        {false, false, 0},   {true, true, 101},
    };
    for (std::size_t i = 0; i < grants.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(grants[i].granted, expected[i].granted);
        EXPECT_EQ(grants[i].merged, expected[i].merged);
        EXPECT_EQ(grants[i].prediction.predicted, expected[i].granted);
        EXPECT_EQ(grants[i].prediction.value, expected[i].value);
    }
    EXPECT_EQ(table.requests() - requests, 11u);
    EXPECT_EQ(table.mergedRequests() - merged, 5u);
    EXPECT_EQ(table.deniedRequests() - denied, 2u);
    EXPECT_EQ(table.distributorAdditions() - additions, 3u)
        << "two for 0x100's copies, one for 0x110's; 0x104 has stride 0";
    EXPECT_EQ(table.hintFilteredRequests() - filtered, 2u);
}

/** Property: across random bundles, grants preserve order and size. */
class RouterProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RouterProperty, GrantVectorMatchesBundle)
{
    VpTableConfig config;
    config.banks = GetParam();
    auto table = std::make_unique<InterleavedVpTable>(
        makeClassifiedPredictor(PredictorKind::Stride), config);
    std::vector<Addr> bundle;
    for (unsigned i = 0; i < 24; ++i)
        bundle.push_back((i * 12) % 64 * instBytes);
    const auto grants = table->processBundle(bundle);
    ASSERT_EQ(grants.size(), bundle.size());
    // Duplicate pcs must all share one fate (granted or denied).
    for (std::size_t i = 0; i < bundle.size(); ++i) {
        for (std::size_t j = i + 1; j < bundle.size(); ++j) {
            if (bundle[i] == bundle[j]) {
                EXPECT_EQ(grants[i].granted, grants[j].granted);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Banks, RouterProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // namespace
} // namespace vpsim
