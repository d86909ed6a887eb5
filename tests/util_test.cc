/**
 * @file
 * Unit tests for the util module: RNG, statistics, k-means, formatting,
 * tables, and the CLI parser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <latch>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mem/hbm_backend.hh"
#include "mem/sram_backend.hh"
#include "util/cli.hh"
#include "util/format.hh"
#include "util/fsio.hh"
#include "util/logging.hh"
#include "util/kmeans.hh"
#include "util/rng.hh"
#include "util/shared_cache.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace uvolt
{
namespace
{

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += (a() == b());
    EXPECT_LT(equal, 3);
}

TEST(Rng, StringSeedingIsStable)
{
    Rng a("1308-6520"), b("1308-6520"), c("604018691749-76023");
    EXPECT_EQ(a(), b());
    Rng a2("1308-6520");
    EXPECT_NE(a2(), c());
}

TEST(Rng, UniformRangeAndMean)
{
    Rng rng(99);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(3, 9);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 9u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 9);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(7);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.gaussian(2.0, 3.0));
    EXPECT_NEAR(stats.mean(), 2.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(8);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.exponential(4.0));
    EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, PoissonSmallMean)
{
    Rng rng(9);
    RunningStats stats;
    for (int i = 0; i < 30000; ++i)
        stats.add(static_cast<double>(rng.poisson(3.5)));
    EXPECT_NEAR(stats.mean(), 3.5, 0.1);
    EXPECT_NEAR(stats.variance(), 3.5, 0.25);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox)
{
    Rng rng(10);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(static_cast<double>(rng.poisson(400.0)));
    EXPECT_NEAR(stats.mean(), 400.0, 2.0);
}

TEST(Rng, PoissonZeroMean)
{
    Rng rng(11);
    EXPECT_EQ(rng.poisson(0.0), 0u);
    EXPECT_EQ(rng.poisson(-1.0), 0u);
}

// The packed fill is the chance() loop it replaced, bit for bit: same
// draws, same order (bit 0 of word 0 first), same comparison outcome at
// every density including the exact-threshold edges and the clamps.
TEST(Rng, FillBernoulliMatchesAChanceLoopBitForBit)
{
    const double densities[] = {0.0,
                                0x1.0p-53,
                                1e-300,
                                0.001,
                                0.25,
                                1.0 / 3.0,
                                0.5,
                                0.501,
                                0.999,
                                1.0 - 0x1.0p-53,
                                1.0,
                                2.0,
                                -0.5,
                                std::numeric_limits<double>::quiet_NaN()};
    for (double p : densities) {
        for (std::uint64_t seed : {1ull, 7ull, 42ull, 0x9e3779b9ull}) {
            Rng packed(seed);
            Rng scalar(seed);
            std::vector<std::uint64_t> words(37);
            packed.fillBernoulli(words, p);
            for (std::size_t w = 0; w < words.size(); ++w) {
                std::uint64_t expected = 0;
                for (int bit = 0; bit < 64; ++bit) {
                    if (scalar.chance(p))
                        expected |= std::uint64_t{1} << bit;
                }
                ASSERT_EQ(words[w], expected)
                    << "p=" << p << " seed=" << seed << " word " << w;
            }
            // Both streams consumed exactly one draw per bit.
            EXPECT_EQ(packed(), scalar()) << "p=" << p;
        }
    }
    Rng rng(3);
    std::vector<std::uint64_t> words(4, 0x1234);
    rng.fillBernoulli(words, 1.0);
    for (std::uint64_t word : words)
        EXPECT_EQ(word, ~std::uint64_t{0});
    rng.fillBernoulli(words, std::numeric_limits<double>::quiet_NaN());
    for (std::uint64_t word : words)
        EXPECT_EQ(word, 0u);
}

TEST(Rng, FillBernoulliStreamsMatchesOneScalarFillPerStream)
{
    std::vector<double> densities = {0.0,
                                     0x1.0p-53,
                                     1.0 / 3.0,
                                     0.5,
                                     0.7,
                                     1.0 - 0x1.0p-53,
                                     1.0,
                                     std::numeric_limits<double>::quiet_NaN(),
                                     -0.5,
                                     1.5};
    Rng pick(2024);
    for (int i = 0; i < 3; ++i)
        densities.push_back(pick.uniform());
    // Plane sizes of a 256-word BRAM and of the HBM and SRAM domains.
    const std::size_t word_counts[] = {
        0, 1, 256,
        mem::hbmDeviceTraits(*mem::findHbm("HBM2-A")).wordsPerDomain,
        mem::sramDeviceTraits(*mem::findSram("MORS-SRAM-A")).wordsPerDomain};
    constexpr std::uint64_t sentinel = 0x5a5a5a5a5a5a5a5aull;
    for (double p : densities) {
        for (std::size_t streams : {0, 1, 15, 16, 17, 33}) {
            for (std::size_t words : word_counts) {
                std::vector<std::uint64_t> seeds;
                for (std::size_t k = 0; k < streams; ++k)
                    seeds.push_back(combineSeeds(pick(), k));
                // One spare word past the planes must stay untouched.
                std::vector<std::uint64_t> planes(streams * words + 1,
                                                  sentinel);
                fillBernoulliStreams(seeds, planes, words, p);
                std::vector<std::uint64_t> expected(words);
                for (std::size_t k = 0; k < streams; ++k) {
                    Rng(seeds[k]).fillBernoulli(expected, p);
                    for (std::size_t w = 0; w < words; ++w)
                        ASSERT_EQ(planes[k * words + w], expected[w])
                            << "p=" << p << " streams=" << streams
                            << " words=" << words << " stream " << k
                            << " word " << w;
                }
                EXPECT_EQ(planes.back(), sentinel);
            }
        }
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(12);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ShufflePermutes)
{
    Rng rng(13);
    std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto sorted = items;
    rng.shuffle(items);
    EXPECT_TRUE(std::is_permutation(items.begin(), items.end(),
                                    sorted.begin()));
}

TEST(SeedHelpers, CombineIsOrderSensitive)
{
    EXPECT_NE(combineSeeds(1, 2), combineSeeds(2, 1));
    EXPECT_EQ(combineSeeds(1, 2), combineSeeds(1, 2));
}

TEST(RunningStats, BasicMoments)
{
    RunningStats stats;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(x);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_NEAR(stats.stddev(), 2.138, 0.001);
    EXPECT_DOUBLE_EQ(stats.minimum(), 2.0);
    EXPECT_DOUBLE_EQ(stats.maximum(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, EmptyIsSafe)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_EQ(stats.mean(), 0.0);
    EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(Quantile, MedianAndInterpolation)
{
    std::vector<double> odd{5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(median(odd), 3.0);
    std::vector<double> even{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(median(even), 2.5);
    EXPECT_DOUBLE_EQ(quantile(even, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(even, 1.0), 4.0);
}

TEST(Quantile, EdgeCases)
{
    // Single element: every q returns it.
    std::vector<double> one{7.5};
    EXPECT_DOUBLE_EQ(quantile(one, 0.0), 7.5);
    EXPECT_DOUBLE_EQ(quantile(one, 0.5), 7.5);
    EXPECT_DOUBLE_EQ(quantile(one, 1.0), 7.5);

    // Out-of-range q clamps instead of indexing out of bounds, and
    // the extremes are the exact sample min/max (no interpolation
    // round-off from pos = q * (n - 1) landing at n - 1 - epsilon).
    std::vector<double> values{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
    EXPECT_DOUBLE_EQ(quantile(values, -3.0), 0.1);
    EXPECT_DOUBLE_EQ(quantile(values, 2.0), 0.7);

    // NaN q must not reach the index arithmetic; it clamps to 0.
    EXPECT_DOUBLE_EQ(
        quantile(values, std::numeric_limits<double>::quiet_NaN()), 0.1);
}

TEST(KMeans, SeparatedClustersRecovered)
{
    std::vector<double> samples;
    Rng rng(31);
    for (int i = 0; i < 100; ++i)
        samples.push_back(rng.gaussian(0.0, 0.1));
    for (int i = 0; i < 50; ++i)
        samples.push_back(rng.gaussian(10.0, 0.1));
    for (int i = 0; i < 20; ++i)
        samples.push_back(rng.gaussian(30.0, 0.1));

    const KMeansResult result = kMeans1d(samples, 3);
    ASSERT_EQ(result.centroids.size(), 3u);
    EXPECT_NEAR(result.centroids[0], 0.0, 0.5);
    EXPECT_NEAR(result.centroids[1], 10.0, 0.5);
    EXPECT_NEAR(result.centroids[2], 30.0, 0.5);
    EXPECT_EQ(result.sizes[0], 100u);
    EXPECT_EQ(result.sizes[1], 50u);
    EXPECT_EQ(result.sizes[2], 20u);
}

TEST(KMeans, CentroidsSortedAscending)
{
    std::vector<double> samples{9.0, 1.0, 5.0, 9.1, 1.1, 5.1};
    const KMeansResult result = kMeans1d(samples, 3);
    EXPECT_LT(result.centroids[0], result.centroids[1]);
    EXPECT_LT(result.centroids[1], result.centroids[2]);
    // Assignment follows the sorted order.
    EXPECT_EQ(result.assignment[1], 0u); // sample 1.0
    EXPECT_EQ(result.assignment[2], 1u); // sample 5.0
    EXPECT_EQ(result.assignment[0], 2u); // sample 9.0
}

TEST(KMeans, SingleCluster)
{
    std::vector<double> samples{1.0, 2.0, 3.0};
    const KMeansResult result = kMeans1d(samples, 1);
    EXPECT_NEAR(result.centroids[0], 2.0, 1e-9);
    EXPECT_EQ(result.sizes[0], 3u);
}

TEST(KMeans, HeavyTailedZeroMass)
{
    // The Fig 5 shape: mostly zeros, a few large values.
    std::vector<double> samples(900, 0.0);
    for (int i = 0; i < 90; ++i)
        samples.push_back(5.0 + i * 0.01);
    for (int i = 0; i < 10; ++i)
        samples.push_back(100.0 + i);
    const KMeansResult result = kMeans1d(samples, 3);
    EXPECT_EQ(result.sizes[0], 900u);
    EXPECT_EQ(result.sizes[1], 90u);
    EXPECT_EQ(result.sizes[2], 10u);
}

// Four threads ask for one key at once: make() runs exactly once and
// every caller aliases its value; a second key gets its own.
TEST(SharedCache, ConcurrentFirstRequestsBuildOnce)
{
    SharedCache<std::vector<int>> cache;
    std::atomic<int> builds{0};
    const auto make = [&builds] {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return std::vector<int>(1000, 7);
    };
    constexpr int threads = 4;
    std::vector<std::shared_ptr<const std::vector<int>>> got(threads);
    std::latch start(threads);
    {
        std::vector<std::jthread> workers;
        for (int t = 0; t < threads; ++t)
            workers.emplace_back([&, t] {
                start.arrive_and_wait();
                got[t] = cache.obtain("die", make);
            });
    }
    EXPECT_EQ(builds.load(), 1);
    for (const auto &value : got)
        EXPECT_EQ(value.get(), got[0].get());
    EXPECT_EQ(got[0]->size(), 1000u);
    EXPECT_NE(cache.obtain("other die", make).get(), got[0].get());
    EXPECT_EQ(builds.load(), 2);
}

TEST(SharedCache, KeysSeparateEveryFieldValue)
{
    EXPECT_EQ(cacheKey(std::string("H2A"), 8, 0.95),
              cacheKey(std::string("H2A"), 8, 0.95));
    // One ulp apart is two keys: doubles are not rounded.
    EXPECT_NE(cacheKey(0.95), cacheKey(std::nextafter(0.95, 1.0)));
    // Field boundaries cannot shift: strings carry their length.
    EXPECT_NE(cacheKey(1, 23), cacheKey(12, 3));
    EXPECT_NE(cacheKey(std::string("a|1"), 2),
              cacheKey(std::string("a"), std::string("1|2")));
}

TEST(Format, Placeholders)
{
    EXPECT_EQ(strFormat("a={} b={}", 1, "x"), "a=1 b=x");
    EXPECT_EQ(strFormat("{:04X}", 0xABu), "00AB");
    EXPECT_EQ(strFormat("{:.2f}", 3.14159), "3.14");
    EXPECT_EQ(strFormat("{{literal}}"), "{literal}");
    EXPECT_EQ(strFormat("no args"), "no args");
}

TEST(Table, AlignedOutputAndCsv)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22"});
    std::ostringstream os;
    table.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);

    std::ostringstream csv;
    table.printCsv(csv);
    EXPECT_EQ(csv.str(), "name,value\nalpha,1\nb,22\n");
}

TEST(Table, CsvQuoting)
{
    TextTable table({"a"});
    table.addRow({"x,y\"z"});
    std::ostringstream csv;
    table.printCsv(csv);
    EXPECT_EQ(csv.str(), "a\n\"x,y\"\"z\"\n");
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtVolts(0.61), "0.61V");
    EXPECT_EQ(fmtPercent(0.39), "39.0%");
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
}

TEST(Cli, TypedFlagsAndDefaults)
{
    CliParser cli("test");
    cli.addString("platform", "VC707", "board");
    cli.addDouble("voltage", 0.61, "level");
    cli.addInt("runs", 100, "repetitions");
    cli.addBool("verbose", "talk more");

    const char *argv[] = {"prog", "--voltage", "0.54", "--verbose",
                          "--runs=5", "extra"};
    ASSERT_TRUE(cli.tryParse(6, const_cast<char **>(argv)).value());
    EXPECT_EQ(cli.getString("platform"), "VC707");
    EXPECT_DOUBLE_EQ(cli.getDouble("voltage"), 0.54);
    EXPECT_EQ(cli.getInt("runs"), 5);
    EXPECT_TRUE(cli.getBool("verbose"));
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "extra");
}

TEST(Cli, HelpReturnsFalse)
{
    CliParser cli("test");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(cli.tryParse(2, const_cast<char **>(argv)).value());
}

TEST(Cli, TryParseReportsUnknownFlagAsError)
{
    CliParser cli("test");
    cli.addInt("runs", 100, "repetitions");
    const char *argv[] = {"prog", "--nope", "5"};
    auto parsed = cli.tryParse(3, const_cast<char **>(argv));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, Errc::unknownFlag);
    // The message names the offending flag, not just the code.
    EXPECT_NE(parsed.error().message.find("nope"), std::string::npos);
}

TEST(Cli, TryParseReportsMissingValueAsError)
{
    CliParser cli("test");
    cli.addInt("runs", 100, "repetitions");
    const char *argv[] = {"prog", "--runs"};
    auto parsed = cli.tryParse(2, const_cast<char **>(argv));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, Errc::unknownFlag);
}

TEST(Cli, TryParseSucceedsOnDeclaredFlags)
{
    CliParser cli("test");
    cli.addInt("runs", 100, "repetitions");
    const char *argv[] = {"prog", "--runs=7"};
    auto parsed = cli.tryParse(2, const_cast<char **>(argv));
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value());
    EXPECT_EQ(cli.getInt("runs"), 7);
}

TEST(Fsio, AtomicWriteCreatesParentsAndLeavesNoTemp)
{
    const auto root =
        std::filesystem::temp_directory_path() / "uvolt-fsio-test";
    std::filesystem::remove_all(root);
    const std::string path = (root / "a" / "b" / "artifact.json").string();

    ASSERT_TRUE(writeFileAtomic(path, "first version").ok());
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "first version");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    // Overwrite is atomic too: the new content fully replaces the old.
    ASSERT_TRUE(writeFileAtomic(path, "second version").ok());
    std::ifstream again(path);
    content.assign((std::istreambuf_iterator<char>(again)),
                   std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "second version");
    std::filesystem::remove_all(root);
}

TEST(Fsio, FailedWriteKeepsPreviousContentAndReportsCode)
{
    const auto root =
        std::filesystem::temp_directory_path() / "uvolt-fsio-fail";
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root / "occupied.tmp");
    // The temp slot is a directory: the write cannot land, and the
    // caller's chosen taxonomy code comes back.
    const std::string path = (root / "occupied").string();
    auto failed =
        writeFileAtomic(path, "doomed", Errc::badCheckpoint);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, Errc::badCheckpoint);
    EXPECT_FALSE(std::filesystem::exists(path));
    std::filesystem::remove_all(root);
}

// --- stderr rate limiting -----------------------------------------------

TEST(Logging, TokenBucketSuppressesStorms)
{
    // A fresh component name gets a fresh bucket (burst of 8, refill
    // 4/s): a back-to-back storm of 40 lines prints the burst and
    // swallows the rest. The storm runs in well under a second, so at
    // most a few refill tokens can leak back in — assert with slack.
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 40; ++i)
        warnc("ratelimit_test", "storm line {}", i);
    const std::string storm = ::testing::internal::GetCapturedStderr();
    const auto printed = std::count(storm.begin(), storm.end(), '\n');
    EXPECT_GE(40 - printed, 25);
    EXPECT_LE(printed, 12);

    // Once a token refills, the next line that passes carries the
    // count of the lines swallowed meanwhile.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ::testing::internal::CaptureStderr();
    warnc("ratelimit_test", "after the storm");
    const std::string after = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(after.find("similar suppressed)"), std::string::npos)
        << after;
}

} // namespace
} // namespace uvolt
