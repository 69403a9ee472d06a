/**
 * @file
 * Unit tests for the common utilities: reduced-precision conversions, RNG
 * determinism, Zipf sampling, statistics, serialization, the thread pool
 * and the table printer.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/float_types.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "scoped_temp_dir.h"

namespace neo {
namespace {

// ---------------------------------------------------------------- Half

TEST(Half, ExactlyRepresentableValuesRoundTrip)
{
    for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f,
                    65504.0f /* max half */}) {
        EXPECT_EQ(Half(v).ToFloat(), v) << v;
    }
}

TEST(Half, RelativeErrorBounded)
{
    Rng rng(7);
    for (int i = 0; i < 10000; i++) {
        const float v = rng.NextUniform(-100.0f, 100.0f);
        const float back = Half(v).ToFloat();
        if (std::abs(v) > 1e-3f) {
            // Half has a 10-bit mantissa: eps = 2^-11 for RNE.
            EXPECT_LE(std::abs(back - v) / std::abs(v), 1.0f / 2048.0f)
                << v;
        }
    }
}

TEST(Half, OverflowGoesToInfinity)
{
    EXPECT_TRUE(std::isinf(Half(1e6f).ToFloat()));
    EXPECT_TRUE(std::isinf(Half(-1e6f).ToFloat()));
}

TEST(Half, SubnormalsRoundTrip)
{
    // Smallest positive half subnormal is 2^-24.
    const float tiny = std::ldexp(1.0f, -24);
    EXPECT_EQ(Half(tiny).ToFloat(), tiny);
    EXPECT_EQ(Half(tiny / 2.1f).ToFloat(), 0.0f);  // underflow to zero
}

TEST(Half, NanPreserved)
{
    EXPECT_TRUE(std::isnan(Half(std::nanf("")).ToFloat()));
}

TEST(Half, RoundToNearestEven)
{
    // 1 + 2^-11 is exactly between 1.0 and the next half (1 + 2^-10):
    // RNE picks the even mantissa, i.e. 1.0.
    const float midpoint = 1.0f + std::ldexp(1.0f, -11);
    EXPECT_EQ(Half(midpoint).ToFloat(), 1.0f);
    // 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9: RNE picks 1+2^-9 (even).
    const float midpoint2 = 1.0f + 3.0f * std::ldexp(1.0f, -11);
    EXPECT_EQ(Half(midpoint2).ToFloat(), 1.0f + std::ldexp(1.0f, -9));
}

// ------------------------------------------------------------- BFloat16

TEST(BFloat16, LargeDynamicRangeSurvives)
{
    for (float v : {1e30f, -1e30f, 1e-30f, 3e38f}) {
        const float back = BFloat16(v).ToFloat();
        EXPECT_NEAR(back / v, 1.0f, 0.01f) << v;
    }
}

TEST(BFloat16, RelativeErrorBounded)
{
    Rng rng(9);
    for (int i = 0; i < 10000; i++) {
        const float v = rng.NextUniform(-1e4f, 1e4f);
        const float back = BFloat16(v).ToFloat();
        if (std::abs(v) > 1e-3f) {
            // 7-bit mantissa: eps = 2^-8 for RNE.
            EXPECT_LE(std::abs(back - v) / std::abs(v), 1.0f / 256.0f) << v;
        }
    }
}

TEST(BFloat16, NanPreserved)
{
    EXPECT_TRUE(std::isnan(BFloat16(std::nanf("")).ToFloat()));
}

TEST(Precision, BytesPerElement)
{
    EXPECT_EQ(BytesPerElement(Precision::kFp32), 4u);
    EXPECT_EQ(BytesPerElement(Precision::kFp16), 2u);
    EXPECT_EQ(BytesPerElement(Precision::kBf16), 2u);
    EXPECT_EQ(BytesPerElement(Precision::kTf32), 4u);
}

// ------------------------------------------------------------------ Rng

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; i++) {
        EXPECT_EQ(a.Next(), b.Next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++) {
        same += a.Next() == b.Next();
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange)
{
    Rng rng(5);
    for (int i = 0; i < 10000; i++) {
        const double x = rng.NextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, BoundedIsUnbiasedEnough)
{
    Rng rng(11);
    std::map<uint64_t, int> counts;
    const int n = 60000;
    for (int i = 0; i < n; i++) {
        counts[rng.NextBounded(6)]++;
    }
    for (uint64_t v = 0; v < 6; v++) {
        EXPECT_NEAR(counts[v], n / 6, n / 6 * 0.1) << v;
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    RunningStat stat;
    for (int i = 0; i < 50000; i++) {
        stat.Add(rng.NextGaussian());
    }
    EXPECT_NEAR(stat.mean(), 0.0, 0.03);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.03);
}

TEST(Rng, PoissonMeanMatches)
{
    Rng rng(17);
    for (double mean : {0.5, 3.0, 10.0, 50.0}) {
        RunningStat stat;
        for (int i = 0; i < 20000; i++) {
            stat.Add(rng.NextPoisson(mean));
        }
        EXPECT_NEAR(stat.mean(), mean, mean * 0.06 + 0.05) << mean;
    }
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng parent(23);
    Rng child = parent.Split();
    int same = 0;
    for (int i = 0; i < 100; i++) {
        same += parent.Next() == child.Next();
    }
    EXPECT_LT(same, 3);
}

// ----------------------------------------------------------------- Zipf

TEST(Zipf, SamplesInRange)
{
    Rng rng(29);
    ZipfSampler zipf(1000, 1.1);
    for (int i = 0; i < 10000; i++) {
        EXPECT_LT(zipf.Sample(rng), 1000u);
    }
}

TEST(Zipf, SkewConcentratesOnPopularItems)
{
    Rng rng(31);
    ZipfSampler skewed(100000, 1.2);
    ZipfSampler uniform(100000, 0.0);
    auto top100_frac = [&](ZipfSampler& sampler) {
        int hits = 0;
        const int n = 20000;
        for (int i = 0; i < n; i++) {
            hits += sampler.Sample(rng) < 100;
        }
        return static_cast<double>(hits) / n;
    };
    const double skew_frac = top100_frac(skewed);
    const double uni_frac = top100_frac(uniform);
    EXPECT_GT(skew_frac, 0.3);     // heavy head
    EXPECT_LT(uni_frac, 0.01);     // uniform spreads out
}

TEST(Zipf, RankOrderingHolds)
{
    Rng rng(37);
    ZipfSampler zipf(1000, 1.05);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 200000; i++) {
        counts[zipf.Sample(rng)]++;
    }
    // Head must dominate tail.
    EXPECT_GT(counts[0], counts[500] * 5);
    EXPECT_GT(counts[1], counts[900]);
}

// ---------------------------------------------------------------- Stats

TEST(Stats, RunningStatBasics)
{
    RunningStat stat;
    for (double v : {1.0, 2.0, 3.0, 4.0}) {
        stat.Add(v);
    }
    EXPECT_EQ(stat.count(), 4u);
    EXPECT_DOUBLE_EQ(stat.mean(), 2.5);
    EXPECT_DOUBLE_EQ(stat.min(), 1.0);
    EXPECT_DOUBLE_EQ(stat.max(), 4.0);
    EXPECT_NEAR(stat.variance(), 1.25, 1e-12);
    EXPECT_DOUBLE_EQ(stat.sum(), 10.0);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> v = {10, 20, 30, 40, 50};
    EXPECT_DOUBLE_EQ(Percentile(v, 0), 10);
    EXPECT_DOUBLE_EQ(Percentile(v, 50), 30);
    EXPECT_DOUBLE_EQ(Percentile(v, 100), 50);
    EXPECT_DOUBLE_EQ(Percentile(v, 25), 20);
    EXPECT_DOUBLE_EQ(Percentile(v, 62.5), 35);
}

TEST(Stats, RunningStatMinMaxFirstSample)
{
    // Regression for the count == 1 branch: the first observation must
    // seed min/max even when it is "worse" than the zero-initialized
    // members (positive min, negative max).
    RunningStat positive;
    positive.Add(7.5);
    EXPECT_DOUBLE_EQ(positive.min(), 7.5);
    EXPECT_DOUBLE_EQ(positive.max(), 7.5);
    EXPECT_DOUBLE_EQ(positive.mean(), 7.5);
    EXPECT_DOUBLE_EQ(positive.variance(), 0.0);

    RunningStat negative;
    negative.Add(-3.0);
    EXPECT_DOUBLE_EQ(negative.min(), -3.0);
    EXPECT_DOUBLE_EQ(negative.max(), -3.0);
    negative.Add(-9.0);
    EXPECT_DOUBLE_EQ(negative.min(), -9.0);
    EXPECT_DOUBLE_EQ(negative.max(), -3.0);
}

TEST(Stats, PercentileEdgeCases)
{
    // Single sample: every percentile is that sample.
    std::vector<double> one = {42.0};
    EXPECT_DOUBLE_EQ(Percentile(one, 0), 42.0);
    EXPECT_DOUBLE_EQ(Percentile(one, 50), 42.0);
    EXPECT_DOUBLE_EQ(Percentile(one, 100), 42.0);

    // Empty input and out-of-range p must throw, not crash or read UB.
    EXPECT_THROW(Percentile({}, 50), std::invalid_argument);
    EXPECT_THROW(Percentile({1.0, 2.0}, -0.1), std::invalid_argument);
    EXPECT_THROW(Percentile({1.0, 2.0}, 100.1), std::invalid_argument);
}

TEST(Stats, LoadBalanceMetrics)
{
    const LoadBalance lb = ComputeLoadBalance({2.0, 4.0, 6.0});
    EXPECT_DOUBLE_EQ(lb.mean, 4.0);
    EXPECT_DOUBLE_EQ(lb.max, 6.0);
    EXPECT_DOUBLE_EQ(lb.min, 2.0);
    EXPECT_DOUBLE_EQ(lb.imbalance, 1.5);
    const LoadBalance perfect = ComputeLoadBalance({3.0, 3.0, 3.0});
    EXPECT_DOUBLE_EQ(perfect.imbalance, 1.0);
}

// ------------------------------------------------------------ Serialize

TEST(Serialize, ScalarStringVectorRoundTrip)
{
    BinaryWriter writer;
    writer.Write<uint32_t>(0xDEADBEEF);
    writer.Write<double>(3.25);
    writer.WriteString("hello neo");
    writer.WriteVector<float>({1.0f, 2.0f, 3.0f});

    BinaryReader reader(writer.buffer());
    EXPECT_EQ(reader.Read<uint32_t>(), 0xDEADBEEFu);
    EXPECT_EQ(reader.Read<double>(), 3.25);
    EXPECT_EQ(reader.ReadString(), "hello neo");
    EXPECT_EQ(reader.ReadVector<float>(),
              (std::vector<float>{1.0f, 2.0f, 3.0f}));
    EXPECT_TRUE(reader.AtEnd());
}

TEST(Serialize, TruncatedInputThrows)
{
    BinaryWriter writer;
    writer.Write<uint32_t>(1);
    BinaryReader reader(writer.buffer());
    reader.Read<uint32_t>();
    EXPECT_THROW(reader.Read<uint64_t>(), std::runtime_error);
}

TEST(Serialize, FileRoundTrip)
{
    const neo::testing::ScopedTempDir temp;
    const std::string path = (temp.path() / "serialize_test.bin").string();
    BinaryWriter writer;
    writer.WriteVector<int64_t>({5, -7, 11});
    writer.SaveToFile(path);
    BinaryReader reader = BinaryReader::LoadFromFile(path);
    EXPECT_EQ(reader.ReadVector<int64_t>(),
              (std::vector<int64_t>{5, -7, 11}));
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPool, ExecutesAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; i++) {
        futures.push_back(pool.Submit([&counter, i] {
            counter.fetch_add(1);
            return i * 2;
        }));
    }
    for (int i = 0; i < 100; i++) {
        EXPECT_EQ(futures[i].get(), i * 2);
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(1);
    auto fut = pool.Submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(fut.get(), std::runtime_error);
}

// --------------------------------------------------------------- Units

TEST(Units, Formatting)
{
    EXPECT_EQ(FormatBytes(1536.0), "1.5 KiB");
    EXPECT_EQ(FormatBandwidth(12.5e9), "12.5 GB/s");
    EXPECT_EQ(FormatSeconds(0.0032), "3.2 ms");
    EXPECT_EQ(FormatCount(1047000), "1.047 M");
}

// --------------------------------------------------------- TablePrinter

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter table({"model", "qps"});
    table.Row().Cell("A1").CellF(273000, "%.0f");
    table.Row().Cell("A2-long-name").Cell(622);
    const std::string out = table.ToString();
    EXPECT_NE(out.find("| model"), std::string::npos);
    EXPECT_NE(out.find("273000"), std::string::npos);
    EXPECT_NE(out.find("A2-long-name"), std::string::npos);
    // All lines equal width.
    size_t first_len = out.find('\n');
    size_t pos = 0;
    for (size_t next = out.find('\n', pos); next != std::string::npos;
         pos = next + 1, next = out.find('\n', pos)) {
        EXPECT_EQ(next - pos, first_len);
    }
}

}  // namespace
}  // namespace neo
