/**
 * @file
 * Tests for the parallel fleet-campaign engine and the Campaign facade:
 * the ThreadPool, bit-identity of parallel and serial fleets, the
 * single-flight FvmCache, engine-level checkpoint resume, and the
 * builder's equivalence to hand-wired sweeps.
 *
 * The central invariant under test: a fleet's results are a pure
 * function of its plan — worker count, completion order, harsh
 * environments, and mid-run kills never show in the output.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "harness/campaign.hh"
#include "harness/checkpoint.hh"
#include "harness/fleet.hh"
#include "harness/fvm_io.hh"
#include "pmbus/board.hh"
#include "util/thread_pool.hh"

namespace uvolt::harness
{
namespace
{

using pmbus::Board;
using pmbus::NoiseConfig;

/** Fresh scratch directory under the system temp root. */
std::string
scratchDir(const std::string &name)
{
    const auto path = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path.string();
}

/** A quick two-pattern, two-temperature fleet on the smallest die. */
FleetPlan
fastPlan()
{
    FleetPlan plan = FleetPlan::crossProduct(
        {"ZC702"},
        {PatternSpec::allOnes(), PatternSpec::fixed(0x0000)},
        {50.0, 60.0});
    plan.runsPerLevel = 5;
    return plan;
}

/** Bit-exact equality of two sweeps (the determinism contract). */
void
expectSameSweep(const SweepResult &a, const SweepResult &b)
{
    EXPECT_EQ(a.platform, b.platform);
    EXPECT_EQ(a.dieId, b.dieId);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const SweepPoint &p = a.points[i];
        const SweepPoint &q = b.points[i];
        EXPECT_EQ(p.vccBramMv, q.vccBramMv);
        EXPECT_EQ(p.runCounts, q.runCounts);
        EXPECT_EQ(p.medianFaults, q.medianFaults);
        EXPECT_EQ(p.faultsPerMbit, q.faultsPerMbit);
        EXPECT_EQ(p.perBramFaults, q.perBramFaults);
        EXPECT_EQ(p.bramPowerW, q.bramPowerW);
        EXPECT_EQ(p.oneToZeroFraction, q.oneToZeroFraction);
    }
}

void
expectSameFleet(const FleetResult &a, const FleetResult &b)
{
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].job.label(), b.jobs[i].job.label());
        expectSameSweep(a.jobs[i].sweep, b.jobs[i].sweep);
    }
    ASSERT_EQ(a.dies.size(), b.dies.size());
    for (std::size_t i = 0; i < a.dies.size(); ++i) {
        EXPECT_EQ(a.dies[i].dieId, b.dies[i].dieId);
        EXPECT_EQ(a.dies[i].faultsPerMbitAtVcrash,
                  b.dies[i].faultsPerMbitAtVcrash);
        ASSERT_EQ(a.dies[i].mergedFvm.has_value(),
                  b.dies[i].mergedFvm.has_value());
        if (a.dies[i].mergedFvm) {
            EXPECT_EQ(a.dies[i].mergedFvm->perBramFaults(),
                      b.dies[i].mergedFvm->perBramFaults());
        }
    }
    EXPECT_EQ(a.dieToDieRatio(), b.dieToDieRatio());
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineOnCallingThread)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);
    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    bool ran = false;
    pool.submit([&] {
        ran_on = std::this_thread::get_id();
        ran = true;
    });
    // Inline execution: complete before submit() returned, same thread.
    EXPECT_TRUE(ran);
    EXPECT_EQ(ran_on, caller);
    pool.wait();
}

TEST(ThreadPoolTest, RunsEveryJobAcrossWorkers)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitDrainsAndPoolIsReusable)
{
    ThreadPool pool(3);
    std::atomic<int> counter{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 20; ++i) {
            pool.submit([&] {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                counter.fetch_add(1);
            });
        }
        pool.wait();
        EXPECT_EQ(counter.load(), (batch + 1) * 20);
    }
}

TEST(ThreadPoolTest, HardwareWorkersIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareWorkers(), 1u);
}

TEST(ThreadPoolTest, ThrowingJobFailsTheBatchDeterministically)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    for (int i = 0; i < 20; ++i)
        pool.submit([&] { completed.fetch_add(1); });
    pool.submit([] { throw std::runtime_error("injected job failure"); });
    for (int i = 0; i < 20; ++i)
        pool.submit([&] { completed.fetch_add(1); });

    // The batch fails with the escaped exception — but every other job
    // still ran, so pre-assigned result slots stay consistent.
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(completed.load(), 40);

    // Rethrowing cleared the stored exception: the pool is reusable and
    // a clean follow-up batch waits without throwing.
    completed.store(0);
    for (int i = 0; i < 10; ++i)
        pool.submit([&] { completed.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(completed.load(), 10);
}

TEST(ThreadPoolTest, InlinePoolPropagatesExceptionsToo)
{
    ThreadPool pool(0);
    bool ran_after = false;
    pool.submit([] { throw std::runtime_error("inline failure"); });
    pool.submit([&] { ran_after = true; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_TRUE(ran_after);
    // And the pool is clean again.
    pool.submit([] {});
    pool.wait();
}

TEST(ThreadPoolTest, FirstExceptionWinsOnSingleWorker)
{
    // One worker runs jobs in submission order, so "first in completion
    // order" is deterministic here: the waiter sees job A's message.
    ThreadPool pool(1);
    pool.submit([] { throw std::runtime_error("first failure"); });
    pool.submit([] { throw std::runtime_error("second failure"); });
    try {
        pool.wait();
        FAIL() << "wait() should have rethrown";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "first failure");
    }
    // The second exception was dropped, not deferred to the next round.
    pool.submit([] {});
    pool.wait();
}

TEST(FleetDeterminism, ParallelMatchesSerialBitForBit)
{
    FleetEngine engine;
    const FleetPlan plan = fastPlan();

    auto serial = engine.run(plan);
    ASSERT_TRUE(serial.ok());
    ASSERT_EQ(serial.value().jobs.size(), 4u);

    for (std::size_t workers : {1u, 2u, 8u}) {
        ThreadPool pool(workers);
        auto parallel = engine.run(plan, pool);
        ASSERT_TRUE(parallel.ok()) << "workers=" << workers;
        expectSameFleet(serial.value(), parallel.value());
    }
}

TEST(FleetDeterminism, HarshEnvironmentFleetMatchesQuietFleet)
{
    FleetPlan quiet = fastPlan();
    FleetPlan noisy = fastPlan();
    NoiseConfig noise = NoiseConfig::harsh(1234, 0.02);
    noise.spuriousCrashProb = 0.5;
    for (auto &job : noisy.jobs)
        job.noise = noise;

    FleetEngine engine;
    ThreadPool pool(4);
    auto quiet_result = engine.run(quiet, pool);
    auto noisy_result = engine.run(noisy, pool);
    ASSERT_TRUE(quiet_result.ok());
    ASSERT_TRUE(noisy_result.ok());

    // The injected faults are fully masked (PR-1 invariant), and the
    // fleet layer preserves it across workers.
    for (std::size_t i = 0; i < quiet_result.value().jobs.size(); ++i)
        expectSameSweep(quiet_result.value().jobs[i].sweep,
                        noisy_result.value().jobs[i].sweep);
    EXPECT_GT(noisy_result.value().resilience.crashRecoveries, 0u);
    EXPECT_GT(noisy_result.value().resilience.linkRetransmits, 0u);
}

TEST(FleetDeterminism, DieToDieVariationAcrossTwinBoards)
{
    FleetPlan plan = FleetPlan::crossProduct(
        {"KC705-A", "KC705-B"}, {PatternSpec::allOnes()}, {50.0});
    plan.runsPerLevel = 5;

    ThreadPool pool(2);
    FleetEngine engine;
    auto result = engine.run(plan, pool);
    ASSERT_TRUE(result.ok());

    const FleetResult &fleet = result.value();
    ASSERT_EQ(fleet.dies.size(), 2u);
    // Same platform family, different dies: the serials must differ and
    // the paper's Fig-7 variation must be visible.
    EXPECT_NE(fleet.die("KC705-A").dieId, fleet.die("KC705-B").dieId);
    EXPECT_GT(fleet.dieToDieRatio(), 1.0);
}

TEST(FleetErrors, UnmaskableEnvironmentComesBackAsError)
{
    FleetPlan plan = FleetPlan::crossProduct(
        {"ZC702"}, {PatternSpec::allOnes()}, {50.0});
    plan.runsPerLevel = 3;
    // A board that crashes on every measurement: no recovery budget
    // rides that out, so each of the 3 job attempts spends all 16
    // recoveries of its first run. Unmaskable, but a recoverable error.
    NoiseConfig noise;
    noise.seed = 7;
    noise.spuriousCrashProb = 1.0;
    noise.crashBandMv = 10000; // crash anywhere, not just near Vcrash
    plan.jobs.front().noise = noise;

    FleetEngine engine;
    auto result = engine.run(plan);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.code(), Errc::recoveryExhausted);
    EXPECT_NE(result.error().message.find("through 16 recoveries"),
              std::string::npos)
        << result.error().message;
}

TEST(FleetCheckpoint, ResumesAfterKillAndMatchesFreshRun)
{
    const std::string dir = scratchDir("uvolt-fleet-ckpt");

    FleetPlan plan = FleetPlan::crossProduct(
        {"ZC702"}, {PatternSpec::allOnes()}, {50.0});
    plan.runsPerLevel = 5;

    FleetEngine fresh_engine;
    auto fresh = fresh_engine.run(plan);
    ASSERT_TRUE(fresh.ok());

    // "Kill" a fleet mid-job: run the job's sweep with a level budget,
    // leaving a resumable checkpoint at exactly the engine's path.
    const std::string ckpt_path =
        dir + "/" + plan.jobs.front().label() + ".ckpt";
    {
        Board board(fpga::findPlatform("ZC702"));
        SweepCheckpoint checkpoint;
        SweepOptions options;
        options.runsPerLevel = plan.runsPerLevel;
        options.maxLevels = 2;
        options.checkpoint = &checkpoint;
        options.checkpointPath = ckpt_path;
        auto partial = tryRunCriticalSweep(board, options);
        ASSERT_TRUE(partial.ok());
        EXPECT_TRUE(partial.value().truncated);
    }
    ASSERT_TRUE(std::filesystem::exists(ckpt_path));

    FleetOptions options;
    options.checkpointDir = dir;
    FleetEngine engine(options);
    auto resumed = engine.run(plan);
    ASSERT_TRUE(resumed.ok());

    EXPECT_TRUE(resumed.value().jobs.front().resumed);
    EXPECT_GE(resumed.value().resilience.checkpointResumes, 1u);
    expectSameFleet(fresh.value(), resumed.value());
    // The finished job cleans up its scratch checkpoint.
    EXPECT_FALSE(std::filesystem::exists(ckpt_path));
}

// A host that dies halfway through appending a level leaves a torn
// log; the restarted fleet resumes from its last whole level.
TEST(FleetCheckpoint, ResumesFromATornLogAndMatchesFreshRun)
{
    const std::string dir = scratchDir("uvolt-fleet-torn");

    FleetPlan plan = FleetPlan::crossProduct(
        {"ZC702"}, {PatternSpec::allOnes()}, {50.0});
    plan.runsPerLevel = 5;

    FleetEngine fresh_engine;
    auto fresh = fresh_engine.run(plan);
    ASSERT_TRUE(fresh.ok());

    const std::string ckpt_path =
        dir + "/" + plan.jobs.front().label() + ".ckpt";
    std::uintmax_t two_levels = 0;
    {
        Board board(fpga::findPlatform("ZC702"));
        SweepCheckpoint checkpoint;
        SweepOptions options;
        options.runsPerLevel = plan.runsPerLevel;
        options.maxLevels = 2;
        options.checkpoint = &checkpoint;
        options.checkpointPath = ckpt_path;
        ASSERT_TRUE(tryRunCriticalSweep(board, options).ok());
        two_levels = std::filesystem::file_size(ckpt_path);
        options.maxLevels = 1;
        ASSERT_TRUE(tryRunCriticalSweep(board, options).ok());
    }
    const std::uintmax_t three_levels = std::filesystem::file_size(ckpt_path);
    ASSERT_GT(three_levels, two_levels);
    std::filesystem::resize_file(ckpt_path, (two_levels + three_levels) / 2);
    auto torn = loadCheckpointFile(ckpt_path);
    ASSERT_TRUE(torn.ok());
    EXPECT_EQ(torn.value().completedPoints.size(), 2u);

    FleetOptions options;
    options.checkpointDir = dir;
    FleetEngine engine(options);
    auto resumed = engine.run(plan);
    ASSERT_TRUE(resumed.ok());

    EXPECT_TRUE(resumed.value().jobs.front().resumed);
    expectSameFleet(fresh.value(), resumed.value());
    EXPECT_FALSE(std::filesystem::exists(ckpt_path));
}

TEST(CampaignFacade, MatchesHandWiredSweep)
{
    auto result = Campaign::onPlatform("ZC702").sweep(5).ledgerUnder("").run();
    ASSERT_TRUE(result.ok());

    Board board(fpga::findPlatform("ZC702"));
    SweepOptions options;
    options.runsPerLevel = 5;
    auto direct = tryRunCriticalSweep(board, options);
    ASSERT_TRUE(direct.ok());

    expectSameSweep(result.value().onlySweep(), direct.value());
}

TEST(CampaignFacade, CrossProductShapeAndDefaults)
{
    const FleetPlan plan =
        Campaign::onDevices({"KC705-A", "KC705-B"})
            .withPattern(PatternSpec::allOnes())
            .withPattern(PatternSpec::fixed(0xAAAA))
            .atTemperatures({30.0, 50.0, 80.0})
            .sweep(7)
            .plan();
    EXPECT_EQ(plan.jobs.size(), 12u);
    EXPECT_EQ(plan.runsPerLevel, 7);
    // Platforms outermost, then patterns, then temperatures.
    EXPECT_EQ(plan.jobs[0].platform, "KC705-A");
    EXPECT_EQ(plan.jobs[0].ambientC, 30.0);
    EXPECT_EQ(plan.jobs[11].platform, "KC705-B");
    EXPECT_EQ(plan.jobs[11].pattern.word, 0xAAAA);
    EXPECT_EQ(plan.jobs[11].ambientC, 80.0);
}

TEST(FvmCacheTest, SingleFlightUnderConcurrency)
{
    const std::string dir = scratchDir("uvolt-fvm-cache-flight");
    FvmCache cache(dir);
    const auto &spec = fpga::findPlatform("ZC702");
    const auto pattern = PatternSpec::allOnes();
    const fpga::Floorplan floorplan =
        fpga::Floorplan::columnGrid(spec.bramCount, spec.columnHeight);

    std::atomic<int> characterizations{0};
    auto characterize = [&]() -> Expected<Fvm> {
        characterizations.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return Fvm(spec.name, floorplan,
                   std::vector<int>(spec.bramCount, 3));
    };

    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const Fvm>> results(8);
    for (std::size_t t = 0; t < results.size(); ++t) {
        threads.emplace_back([&, t] {
            auto fvm = cache.obtain(spec, pattern, 5, characterize);
            ASSERT_TRUE(fvm.ok());
            results[t] = fvm.value();
        });
    }
    for (auto &thread : threads)
        thread.join();

    // Exactly one characterization; every caller shares its output.
    EXPECT_EQ(characterizations.load(), 1);
    for (const auto &fvm : results) {
        ASSERT_NE(fvm, nullptr);
        EXPECT_EQ(fvm->faultsOf(0), 3);
    }
    const FvmCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.memoryHits + stats.singleFlightWaits, 7u);
}

TEST(FvmCacheTest, DiskHitsAndCorruptionSelfHeal)
{
    const std::string dir = scratchDir("uvolt-fvm-cache-disk");
    FvmCache cache(dir);
    const auto &spec = fpga::findPlatform("ZC702");
    const auto pattern = PatternSpec::allOnes();
    const fpga::Floorplan floorplan =
        fpga::Floorplan::columnGrid(spec.bramCount, spec.columnHeight);

    int characterizations = 0;
    auto characterize = [&]() -> Expected<Fvm> {
        ++characterizations;
        return Fvm(spec.name, floorplan,
                   std::vector<int>(spec.bramCount, characterizations));
    };

    // Cold: characterize and file the map.
    ASSERT_TRUE(cache.obtain(spec, pattern, 5, characterize).ok());
    EXPECT_EQ(characterizations, 1);

    // Memory hit: no disk, no characterization.
    ASSERT_TRUE(cache.obtain(spec, pattern, 5, characterize).ok());
    EXPECT_EQ(characterizations, 1);
    EXPECT_EQ(cache.stats().memoryHits, 1u);

    // Disk hit: a fresh process (memory evicted) reuses the file.
    cache.evictMemory();
    auto from_disk = cache.obtain(spec, pattern, 5, characterize);
    ASSERT_TRUE(from_disk.ok());
    EXPECT_EQ(characterizations, 1);
    EXPECT_EQ(cache.stats().diskHits, 1u);

    // Corruption self-heals: re-characterize and overwrite.
    const std::string path =
        dir + "/" + FvmCache::keyFor(spec, pattern, 5) + ".fvm";
    {
        std::ofstream out(path);
        out << "garbage, not an fvm\n";
    }
    cache.evictMemory();
    auto healed = cache.obtain(spec, pattern, 5, characterize);
    ASSERT_TRUE(healed.ok());
    EXPECT_EQ(characterizations, 2);
    EXPECT_EQ(healed.value()->faultsOf(0), 2);
    EXPECT_EQ(cache.stats().corruptFiles, 1u);

    // And the overwritten file is good again.
    cache.evictMemory();
    ASSERT_TRUE(cache.obtain(spec, pattern, 5, characterize).ok());
    EXPECT_EQ(characterizations, 2);
    EXPECT_GT(cache.stats().memoryHits + cache.stats().diskHits, 0u);
}

TEST(FvmCacheTest, CorruptDiskSelfHealsUnderConcurrentReaders)
{
    const std::string dir = scratchDir("uvolt-fvm-cache-heal-mt");
    FvmCache cache(dir);
    const auto &spec = fpga::findPlatform("ZC702");
    const auto pattern = PatternSpec::allOnes();
    const fpga::Floorplan floorplan =
        fpga::Floorplan::columnGrid(spec.bramCount, spec.columnHeight);

    // A corrupt on-disk entry is already present when a stampede of
    // readers arrives: exactly one of them re-characterizes (the
    // single-flight lock covers the self-heal path too) and everyone
    // shares the healed map.
    const std::string path =
        dir + "/" + FvmCache::keyFor(spec, pattern, 5) + ".fvm";
    {
        std::ofstream out(path);
        out << "garbage, not an fvm\n";
    }

    std::atomic<int> characterizations{0};
    auto characterize = [&]() -> Expected<Fvm> {
        characterizations.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return Fvm(spec.name, floorplan,
                   std::vector<int>(spec.bramCount, 7));
    };

    std::vector<std::thread> readers;
    std::vector<std::shared_ptr<const Fvm>> results(8);
    for (std::size_t t = 0; t < results.size(); ++t) {
        readers.emplace_back([&, t] {
            auto fvm = cache.obtain(spec, pattern, 5, characterize);
            ASSERT_TRUE(fvm.ok());
            results[t] = fvm.value();
        });
    }
    for (auto &thread : readers)
        thread.join();

    EXPECT_EQ(characterizations.load(), 1);
    for (const auto &fvm : results) {
        ASSERT_NE(fvm, nullptr);
        EXPECT_EQ(fvm->faultsOf(0), 7);
    }
    EXPECT_GE(cache.stats().corruptFiles, 1u);

    // The healed file is good: a fresh memory-evicted read hits disk.
    cache.evictMemory();
    auto healed = cache.obtain(spec, pattern, 5, characterize);
    ASSERT_TRUE(healed.ok());
    EXPECT_EQ(characterizations.load(), 1);
    EXPECT_EQ(healed.value()->faultsOf(0), 7);
}

TEST(FvmCacheTest, FailedFlightsAreSharedThenRetried)
{
    const std::string dir = scratchDir("uvolt-fvm-cache-fail");
    FvmCache cache(dir);
    const auto &spec = fpga::findPlatform("ZC702");
    const auto pattern = PatternSpec::allOnes();
    const fpga::Floorplan floorplan =
        fpga::Floorplan::columnGrid(spec.bramCount, spec.columnHeight);

    auto failing = [&]() -> Expected<Fvm> {
        return makeError(Errc::recoveryExhausted, "die unreachable");
    };
    auto bad = cache.obtain(spec, pattern, 5, failing);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), Errc::recoveryExhausted);

    // The failure is not cached: the next obtain tries again.
    auto working = [&]() -> Expected<Fvm> {
        return Fvm(spec.name, floorplan,
                   std::vector<int>(spec.bramCount, 0));
    };
    EXPECT_TRUE(cache.obtain(spec, pattern, 5, working).ok());
}

TEST(FvmIoErrors, MissingAndCorruptFilesUseTheTaxonomy)
{
    const std::string dir = scratchDir("uvolt-fvm-io");
    const auto &spec = fpga::findPlatform("ZC702");
    const fpga::Floorplan floorplan =
        fpga::Floorplan::columnGrid(spec.bramCount, spec.columnHeight);

    auto missing = tryLoadFvm(floorplan, dir + "/nope.fvm");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.code(), Errc::cacheMiss);

    const std::string path = dir + "/bad.fvm";
    {
        std::ofstream out(path);
        out << "definitely not an fvm\n";
    }
    auto corrupt = tryLoadFvm(floorplan, path);
    ASSERT_FALSE(corrupt.ok());
    EXPECT_EQ(corrupt.code(), Errc::corruptCache);
}

TEST(SweepQueries, MissingLevelNamesTheDie)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SweepResult sweep;
    sweep.platform = "VC707";
    sweep.dieId = "1308-6520";
    EXPECT_EQ(sweep.describe(), "VC707 (die 1308-6520)");
    // Fleet campaigns hold many sweeps of identical platforms: the
    // diagnostic must say which die measured no operable level.
    EXPECT_EXIT(sweep.atVcrash(), ::testing::ExitedWithCode(1),
                "sweep of VC707 \\(die 1308-6520\\) has no points");
}

} // namespace
} // namespace uvolt::harness
