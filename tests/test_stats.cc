/**
 * @file
 * Unit tests for util/stats.hh: accuracy counters, means, running
 * statistics and category counters.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "util/stats.hh"

namespace tlat
{
namespace
{

TEST(AccuracyCounter, Empty)
{
    AccuracyCounter counter;
    EXPECT_EQ(counter.total(), 0u);
    EXPECT_EQ(counter.accuracy(), 0.0);
    EXPECT_EQ(counter.missPercent(), 0.0);
}

// Regression: a trace with no conditional branches must report 0.0
// accuracy everywhere, never NaN — every ratio accessor divides by
// total() and must carry its own zero guard.
TEST(AccuracyCounter, EmptyIsZeroNotNaN)
{
    const AccuracyCounter counter;
    EXPECT_FALSE(std::isnan(counter.accuracy()));
    EXPECT_FALSE(std::isnan(counter.accuracyPercent()));
    EXPECT_FALSE(std::isnan(counter.missPercent()));
    EXPECT_EQ(counter.accuracyPercent(), 0.0);

    // merge() of two empties stays empty and guarded.
    AccuracyCounter merged;
    merged.merge(counter);
    EXPECT_EQ(merged.total(), 0u);
    EXPECT_FALSE(std::isnan(merged.accuracy()));
}

TEST(AccuracyCounter, CountsHitsAndMisses)
{
    AccuracyCounter counter;
    for (int i = 0; i < 97; ++i)
        counter.record(true);
    for (int i = 0; i < 3; ++i)
        counter.record(false);
    EXPECT_EQ(counter.hits(), 97u);
    EXPECT_EQ(counter.misses(), 3u);
    EXPECT_DOUBLE_EQ(counter.accuracyPercent(), 97.0);
    EXPECT_DOUBLE_EQ(counter.missPercent(), 3.0);
}

TEST(AccuracyCounter, MergeAndReset)
{
    AccuracyCounter a;
    AccuracyCounter b;
    a.record(true);
    b.record(false);
    b.record(true);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.hits(), 2u);
    a.reset();
    EXPECT_EQ(a.total(), 0u);
}

TEST(GeometricMean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
    EXPECT_DOUBLE_EQ(geometricMean({5.0}), 5.0);
    EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geometricMean({2.0, 4.0, 8.0}), 4.0, 1e-12);
}

TEST(GeometricMean, ZeroFactorGivesZero)
{
    // A 0%-accuracy cell (AlwaysNotTaken on an all-taken trace) is
    // valid input: the product, and so the mean, is 0.
    EXPECT_DOUBLE_EQ(geometricMean({0.0}), 0.0);
    EXPECT_DOUBLE_EQ(geometricMean({90.0, 0.0, 60.0}), 0.0);
    EXPECT_DEATH(geometricMean({0.0, -1.0}), "non-negative");
}

TEST(BatchTally, MatchesPerRecordCounterIncludingCapture)
{
    const bool outcomes[] = {true, false, true, true, false};
    std::uint8_t tallied[5] = {};
    std::uint8_t recorded[5] = {};
    AccuracyCounter via_tally;
    AccuracyCounter via_record;
    via_tally.captureInto(tallied);
    via_record.captureInto(recorded);
    {
        BatchTally tally(via_tally);
        for (const bool correct : outcomes)
            tally.record(correct);
    }
    for (const bool correct : outcomes)
        via_record.record(correct);
    EXPECT_EQ(via_tally.hits(), via_record.hits());
    EXPECT_EQ(via_tally.total(), via_record.total());
    EXPECT_EQ(via_tally.captureCursor() - tallied, 5);
    EXPECT_EQ(std::vector<std::uint8_t>(tallied, tallied + 5),
              std::vector<std::uint8_t>(recorded, recorded + 5));
}

TEST(BatchTally, RecordWordCountsOnlyTheLowBits)
{
    // Records 0, 2 and 3 correct; bits above count are garbage the
    // tally must ignore.
    std::vector<std::uint8_t> bytes(70, 0xee);
    AccuracyCounter accuracy;
    accuracy.captureInto(bytes.data());
    {
        BatchTally tally(accuracy);
        tally.recordWord(0xfff0'0000'0000'000dULL, 5);
        tally.recordWord(~std::uint64_t{0}, 64);
    }
    EXPECT_EQ(accuracy.total(), 69u);
    EXPECT_EQ(accuracy.hits(), 67u);
    EXPECT_EQ(accuracy.captureCursor(), bytes.data() + 69);
    EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(),
                                        bytes.begin() + 5),
              (std::vector<std::uint8_t>{1, 0, 1, 1, 0}));
    EXPECT_EQ(bytes[68], 1);
    EXPECT_EQ(bytes[69], 0xee);
}

TEST(GeometricMean, IsBelowArithmeticForUnequalValues)
{
    const std::vector<double> values = {90.0, 99.0, 60.0};
    EXPECT_LT(geometricMean(values), arithmeticMean(values));
}

TEST(ArithmeticMean, KnownValues)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
}

TEST(RunningStats, MatchesClosedForm)
{
    RunningStats stats;
    const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (double v : values)
        stats.record(v);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    // Sample variance of the classic example is 32/7.
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, SingleValue)
{
    RunningStats stats;
    stats.record(42.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 42.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.min(), 42.0);
    EXPECT_DOUBLE_EQ(stats.max(), 42.0);
}

TEST(RunningStats, Reset)
{
    RunningStats stats;
    stats.record(1.0);
    stats.reset();
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
}

TEST(CategoryCounter, CountsAndFractions)
{
    CategoryCounter counter;
    counter.record("a");
    counter.record("b", 3);
    counter.record("a");
    EXPECT_EQ(counter.total(), 5u);
    EXPECT_EQ(counter.count("a"), 2u);
    EXPECT_EQ(counter.count("b"), 3u);
    EXPECT_EQ(counter.count("missing"), 0u);
    EXPECT_DOUBLE_EQ(counter.fraction("a"), 0.4);
    EXPECT_DOUBLE_EQ(counter.fraction("missing"), 0.0);
}

TEST(CategoryCounter, PreservesFirstSeenOrder)
{
    CategoryCounter counter;
    counter.record("z");
    counter.record("a");
    counter.record("z");
    counter.record("m");
    const auto &order = counter.categories();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "z");
    EXPECT_EQ(order[1], "a");
    EXPECT_EQ(order[2], "m");
}

} // namespace
} // namespace tlat
