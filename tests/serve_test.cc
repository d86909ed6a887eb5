/**
 * @file
 * Tests for the serving layer: the bounded admission queue, the
 * degradation state machine, and the UvoltServer daemon itself —
 * admission control, deadlines, retry-with-backoff, the classify
 * coalescer, checkpointed restart, and the exactly-once accounting
 * contract under injected fault storms.
 *
 * The central invariants under test mirror the fleet engine's: every
 * admitted request is responded to exactly once (no drops, no
 * duplicates, at any worker count), and a request's *result* is a pure
 * function of its content — injector on or off, retried or not,
 * resumed from a checkpoint or run fresh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "data/synthetic.hh"
#include "harness/experiment.hh"
#include "harness/fleet.hh"
#include "nn/network.hh"
#include "pmbus/board.hh"
#include "serve/health.hh"
#include "serve/request_queue.hh"
#include "serve/server.hh"
#include "json_value.hh"
#include "util/telemetry.hh"

namespace uvolt::serve
{
namespace
{

using harness::PatternSpec;
using harness::SweepResult;

/** Fresh scratch directory under the system temp root. */
std::string
scratchDir(const std::string &name)
{
    const auto path = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path.string();
}

/** Bit-exact equality of two sweeps (the determinism contract). */
void
expectSameSweep(const SweepResult &a, const SweepResult &b)
{
    EXPECT_EQ(a.platform, b.platform);
    EXPECT_EQ(a.dieId, b.dieId);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].vccBramMv, b.points[i].vccBramMv);
        EXPECT_EQ(a.points[i].runCounts, b.points[i].runCounts);
        EXPECT_EQ(a.points[i].medianFaults, b.points[i].medianFaults);
        EXPECT_EQ(a.points[i].perBramFaults, b.points[i].perBramFaults);
    }
}

/** A small deterministic classifier shared by the classify tests. */
std::shared_ptr<const nn::Network>
fixedNet()
{
    static std::shared_ptr<const nn::Network> net = [] {
        auto fresh = std::make_shared<nn::Network>(std::vector<int>{
            data::forestFeatures, 16, data::forestClasses});
        fresh->initWeights(42);
        return fresh;
    }();
    return net;
}

/** A provider that always serves fixedNet(), whatever the setpoint. */
ModelProvider
fixedProvider()
{
    return [](int) -> Expected<std::shared_ptr<const nn::Network>> {
        return fixedNet();
    };
}

/** Sample-major feature rows for @a count synthetic samples. */
ClassifyRequest
forestRequest(std::size_t count, std::uint64_t seed, int setpoint_mv)
{
    const data::Dataset set = data::makeForestLike(count, seed);
    ClassifyRequest request;
    request.sampleCount = count;
    request.setpointMv = setpoint_mv;
    request.samples.reserve(count * data::forestFeatures);
    for (std::size_t s = 0; s < count; ++s) {
        const auto row = set.sample(s);
        request.samples.insert(request.samples.end(), row.begin(),
                               row.end());
    }
    return request;
}

/** @a count rows of @a width features, for the malformed-width cases. */
ClassifyRequest
rowsOfWidth(std::size_t width, std::size_t count)
{
    ClassifyRequest request;
    request.sampleCount = count;
    request.setpointMv = 850;
    request.samples.assign(width * count, 0.25f);
    return request;
}

/** @a classes are what the scalar Network::classify gives per row. */
void
expectScalarClasses(const ClassifyRequest &request,
                    const std::vector<int> &classes)
{
    ASSERT_EQ(classes.size(), request.sampleCount);
    const auto net = fixedNet();
    for (std::size_t s = 0; s < request.sampleCount; ++s) {
        const std::span<const float> sample(
            request.samples.data() + s * data::forestFeatures,
            data::forestFeatures);
        EXPECT_EQ(classes[s], net->classify(sample)) << "sample " << s;
    }
}

// --- BoundedQueue --------------------------------------------------------

TEST(BoundedQueueTest, RejectsWhenFullWithoutBlocking)
{
    BoundedQueue<int> queue(2);
    EXPECT_TRUE(queue.tryPush(1).ok());
    EXPECT_TRUE(queue.tryPush(2).ok());
    auto full = queue.tryPush(3);
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.error().code, Errc::queueFull);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.capacity(), 2u);
}

TEST(BoundedQueueTest, FifoOrderAndHeadOnlyMatching)
{
    BoundedQueue<int> queue(4);
    ASSERT_TRUE(queue.tryPush(10).ok());
    ASSERT_TRUE(queue.tryPush(11).ok());
    ASSERT_TRUE(queue.tryPush(20).ok());

    // tryPopMatching only ever considers the head: 20 is in the queue,
    // but 10 is in front of it.
    EXPECT_FALSE(
        queue.tryPopMatching([](int v) { return v == 20; }).has_value());
    auto head = queue.tryPopMatching([](int v) { return v == 10; });
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(*head, 10);
    EXPECT_EQ(*queue.pop(), 11);
    EXPECT_EQ(*queue.pop(), 20);
}

TEST(BoundedQueueTest, CloseDrainsRemainingItemsThenSignalsEnd)
{
    BoundedQueue<int> queue(4);
    ASSERT_TRUE(queue.tryPush(1).ok());
    queue.close();
    EXPECT_TRUE(queue.closed());

    auto refused = queue.tryPush(2);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, Errc::serverStopped);

    EXPECT_EQ(*queue.pop(), 1);
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumers)
{
    BoundedQueue<int> queue(4);
    std::atomic<int> ended{0};
    std::vector<std::thread> consumers;
    for (int i = 0; i < 3; ++i) {
        consumers.emplace_back([&] {
            while (queue.pop().has_value()) {
            }
            ended.fetch_add(1);
        });
    }
    ASSERT_TRUE(queue.tryPush(7).ok());
    queue.close();
    for (auto &thread : consumers)
        thread.join();
    EXPECT_EQ(ended.load(), 3);
}

// --- HealthTracker -------------------------------------------------------

/** A fault-pressure profile: a storm, then a calm stretch. */
std::vector<double>
stormThenCalm()
{
    std::vector<double> profile;
    for (int i = 0; i < 4; ++i)
        profile.push_back(0.0); // warm-up, healthy
    for (int i = 0; i < 12; ++i)
        profile.push_back(3.0); // sustained storm
    for (int i = 0; i < 24; ++i)
        profile.push_back(0.0); // recovery
    return profile;
}

TEST(HealthTrackerTest, DegradesUnderStormAndRampsBack)
{
    HealthTracker tracker;
    EXPECT_EQ(tracker.state(), ServeState::normal);
    EXPECT_EQ(tracker.score(), 1.0);

    for (double pressure : stormThenCalm())
        tracker.observe(pressure);

    // The storm degraded it, the calm stretch recovered it, and the
    // floor ramped all the way back to the requested operating points.
    EXPECT_EQ(tracker.state(), ServeState::normal);
    EXPECT_EQ(tracker.floorRaiseMv(), 0);
    EXPECT_FALSE(tracker.sheddingLowPriority());

    bool saw_degraded = false;
    bool saw_recovering = false;
    for (const auto &transition : tracker.transitions()) {
        saw_degraded |= transition.state == ServeState::degraded;
        saw_recovering |= transition.state == ServeState::recovering;
    }
    EXPECT_TRUE(saw_degraded);
    EXPECT_TRUE(saw_recovering);
}

TEST(HealthTrackerTest, FloorRaiseIsCappedAndShedsWhileDegraded)
{
    HealthTracker tracker;
    for (int i = 0; i < 40; ++i)
        tracker.observe(5.0); // permanent storm
    EXPECT_EQ(tracker.state(), ServeState::degraded);
    // 10 mV per unhealthy observation, capped at 50 mV (not 37 * 10).
    EXPECT_EQ(tracker.floorRaiseMv(), 50);
    EXPECT_TRUE(tracker.sheddingLowPriority());
    ASSERT_EQ(tracker.transitions().size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(tracker.transitions()[i].observation, 4 + i);
        EXPECT_EQ(tracker.transitions()[i].floorRaiseMv,
                  static_cast<int>(10 * (i + 1)));
    }
}

TEST(HealthTrackerTest, NoTransitionsBeforeMinSamples)
{
    HealthTracker tracker;
    for (int i = 0; i < 3; ++i)
        tracker.observe(9.0);
    EXPECT_EQ(tracker.state(), ServeState::normal);
    EXPECT_TRUE(tracker.transitions().empty());
    // The 4th observation is the first that may move the state.
    tracker.observe(9.0);
    EXPECT_EQ(tracker.state(), ServeState::degraded);
    ASSERT_EQ(tracker.transitions().size(), 1u);
    EXPECT_EQ(tracker.transitions().front().observation, 4u);
}

TEST(HealthTrackerTest, PureFunctionOfObservationSequence)
{
    HealthTracker a;
    HealthTracker b;
    for (double pressure : stormThenCalm()) {
        a.observe(pressure);
        b.observe(pressure);
    }
    ASSERT_EQ(a.transitions().size(), b.transitions().size());
    for (std::size_t i = 0; i < a.transitions().size(); ++i) {
        EXPECT_EQ(a.transitions()[i].observation,
                  b.transitions()[i].observation);
        EXPECT_EQ(a.transitions()[i].state, b.transitions()[i].state);
        EXPECT_EQ(a.transitions()[i].floorRaiseMv,
                  b.transitions()[i].floorRaiseMv);
    }
}

// --- admission control ---------------------------------------------------

/** A provider whose first call blocks until released. */
struct BlockableProvider
{
    std::atomic<bool> release{false};
    std::atomic<int> calls{0};

    ModelProvider
    provider()
    {
        return [this](int)
            -> Expected<std::shared_ptr<const nn::Network>> {
            if (calls.fetch_add(1) == 0) {
                while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
            }
            return fixedNet();
        };
    }
};

TEST(ServeAdmission, FullQueueRejectsWithQueueFull)
{
    BlockableProvider gate;
    ServerConfig config;
    config.queueCapacity = 2;
    config.workers = 1;
    config.modelProvider = gate.provider();
    UvoltServer server(std::move(config));

    // Occupy the single worker, then fill the queue behind it.
    auto busy = server.submitClassify(forestRequest(4, 1, 850));
    ASSERT_TRUE(busy.ok());
    while (gate.calls.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::vector<std::future<Expected<ClassifyResponse>>> queued;
    int rejected = 0;
    for (int i = 0; i < 6; ++i) {
        auto admitted =
            server.submitClassify(forestRequest(4, 2 + i, 850));
        if (admitted.ok()) {
            queued.push_back(std::move(admitted.value()));
        } else {
            EXPECT_EQ(admitted.error().code, Errc::queueFull);
            ++rejected;
        }
    }
    EXPECT_GE(rejected, 4); // capacity 2, six offered
    EXPECT_LE(server.queueDepth(), 2u);

    gate.release.store(true);
    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.admitted, 1u + queued.size());
    EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(rejected));
    EXPECT_EQ(stats.completed + stats.failed, stats.admitted);
    for (auto &future : queued)
        EXPECT_TRUE(future.get().ok());
    auto first = busy.value().get();
    EXPECT_TRUE(first.ok());
    server.stop();
}

TEST(ServeAdmission, DrainedServerRefusesNewWork)
{
    ServerConfig config;
    config.workers = 1;
    config.modelProvider = fixedProvider();
    UvoltServer server(std::move(config));
    server.drain();
    auto refused = server.submitClassify(forestRequest(2, 1, 850));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, Errc::serverStopped);
    server.stop();
}

TEST(ServeAdmission, MalformedRequestsAreRefusedAndServingContinues)
{
    ServerConfig config;
    config.workers = 1;
    config.modelProvider = fixedProvider();
    UvoltServer server(std::move(config));

    for (int runs : {0, -3}) {
        CharacterizeRequest request;
        request.platform = "ZC702";
        request.runsPerLevel = runs;
        auto refused = server.submitCharacterize(std::move(request));
        ASSERT_FALSE(refused.ok());
        EXPECT_EQ(refused.code(), Errc::invalidRequest);
    }
    CharacterizeRequest unknown;
    unknown.platform = "NOT-A-DEVICE";
    auto refused = server.submitCharacterize(std::move(unknown));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), Errc::invalidRequest);
    // A density outside [0, 1] (or NaN) would reach the pattern label's
    // float->int cast; admission refuses it first.
    for (double density : {1e300, -0.5, 1.5,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
        CharacterizeRequest request;
        request.platform = "HBM2-A";
        request.pattern = harness::PatternSpec::random(density, 7);
        auto bad_density = server.submitCharacterize(std::move(request));
        ASSERT_FALSE(bad_density.ok()) << density;
        EXPECT_EQ(bad_density.code(), Errc::invalidRequest) << density;
    }

    ClassifyRequest empty = forestRequest(4, 1, 850);
    empty.sampleCount = 0;
    auto no_samples = server.submitClassify(std::move(empty));
    ASSERT_FALSE(no_samples.ok());
    EXPECT_EQ(no_samples.code(), Errc::invalidRequest);
    ClassifyRequest ragged = forestRequest(4, 1, 850);
    ragged.samples.pop_back();
    auto uneven = server.submitClassify(std::move(ragged));
    ASSERT_FALSE(uneven.ok());
    EXPECT_EQ(uneven.code(), Errc::invalidRequest);
    EXPECT_EQ(server.stats().admitted, 0u);

    // Rows that divide evenly but do not match the model's 54 inputs
    // (0 = no feature at all) pass admission and fail when served.
    for (std::size_t width : {53u, 55u, 0u}) {
        auto admitted = server.submitClassify(rowsOfWidth(width, 4));
        ASSERT_TRUE(admitted.ok()) << width;
        auto response = admitted.take().get();
        ASSERT_FALSE(response.ok()) << width;
        EXPECT_EQ(response.code(), Errc::invalidRequest) << width;
    }
    EXPECT_EQ(server.stats().failed, 3u);

    // The daemon still serves both classes.
    CharacterizeRequest valid;
    valid.platform = "HBM2-A";
    valid.runsPerLevel = 2;
    auto characterized = server.submitCharacterize(std::move(valid));
    ASSERT_TRUE(characterized.ok());
    auto classified = server.submitClassify(forestRequest(4, 1, 850));
    ASSERT_TRUE(classified.ok());
    EXPECT_TRUE(characterized.value().get().ok());
    EXPECT_TRUE(classified.value().get().ok());
    server.stop();

    // One bad member of a coalesced group fails alone; the good members
    // around it get the scalar classes.
    BlockableProvider gate;
    ServerConfig gated;
    gated.workers = 1;
    gated.modelProvider = gate.provider();
    UvoltServer coalescing(std::move(gated));
    auto held = coalescing.submitClassify(forestRequest(2, 1, 850));
    ASSERT_TRUE(held.ok());
    while (gate.calls.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::vector<ClassifyRequest> group{
        forestRequest(5, 2, 850), rowsOfWidth(53, 3),
        forestRequest(7, 3, 850)};
    std::vector<std::future<Expected<ClassifyResponse>>> futures;
    for (const auto &request : group)
        futures.push_back(coalescing.submitClassify(request).orFatal());
    gate.release.store(true);
    ASSERT_TRUE(held.take().get().ok());
    for (std::size_t i : {0u, 2u}) {
        auto response = futures[i].get();
        ASSERT_TRUE(response.ok()) << i;
        EXPECT_TRUE(response.value().coalesced) << i;
        expectScalarClasses(group[i], response.value().classes);
    }
    auto bad = futures[1].get();
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), Errc::invalidRequest);
    coalescing.stop();

    // A server without a model provider refuses classify at admission.
    UvoltServer no_model(ServerConfig{});
    auto no_provider = no_model.submitClassify(forestRequest(2, 1, 850));
    ASSERT_FALSE(no_provider.ok());
    EXPECT_EQ(no_provider.code(), Errc::invalidRequest);
    no_model.stop();
}

TEST(ServeAdmission, NoiseOnABackendCharacterizeFailsWithoutRetry)
{
    ServerConfig config;
    config.workers = 1;
    config.noise = pmbus::NoiseConfig::harsh(0, 0.02);
    UvoltServer server(std::move(config));

    CharacterizeRequest request;
    request.platform = "MORS-SRAM-A";
    request.runsPerLevel = 2;
    auto future = server.submitCharacterize(std::move(request));
    ASSERT_TRUE(future.ok());
    auto response = future.value().get();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.code(), Errc::invalidRequest);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.retried, 0u);
    EXPECT_EQ(stats.failed, 1u);
    server.stop();
}

TEST(ServeAdmission, DegradedServerShedsLowPriorityOnly)
{
    ServerConfig config;
    config.workers = 1;
    config.modelProvider = fixedProvider();
    UvoltServer server(std::move(config));

    for (int i = 0; i < 8; ++i)
        server.observeFaultPressure(5.0);
    ASSERT_EQ(server.healthState(), ServeState::degraded);
    EXPECT_GT(server.floorRaiseMv(), 0);
    const int floor_raise = server.floorRaiseMv();

    ClassifyRequest low = forestRequest(2, 1, 850);
    low.priority = Priority::low;
    auto shed = server.submitClassify(std::move(low));
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.error().code, Errc::loadShed);

    auto normal = server.submitClassify(forestRequest(2, 1, 850));
    ASSERT_TRUE(normal.ok());
    auto response = normal.value().get();
    ASSERT_TRUE(response.ok());
    // Degradation raised the operating point toward the safe region.
    EXPECT_EQ(response.value().effectiveSetpointMv, 850 + floor_raise);
    EXPECT_EQ(server.stats().shed, 1u);
    server.stop();
}

// --- deadlines -----------------------------------------------------------

TEST(ServeDeadline, ExpiredRequestFailsDeadlineExceeded)
{
    ServerConfig config;
    config.workers = 1;
    config.checkpointDir = scratchDir("uvolt-serve-deadline");
    UvoltServer server(std::move(config));

    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = 5;
    request.deadlineMs = 1e-3; // expires before any worker can pop it
    auto future = server.submitCharacterize(std::move(request));
    ASSERT_TRUE(future.ok());
    auto response = future.value().get();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.code(), Errc::deadlineExceeded);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.deadlineExceeded, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, 0u);
    server.stop();
}

TEST(ServeDeadline, UnboundedDeadlineCompletes)
{
    ServerConfig config;
    config.workers = 1;
    UvoltServer server(std::move(config));
    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = 3;
    auto future = server.submitCharacterize(std::move(request));
    ASSERT_TRUE(future.ok());
    EXPECT_TRUE(future.value().get().ok());
    server.stop();
}

// --- retries -------------------------------------------------------------

TEST(ServeRetry, TransientModelFaultsRetryWithBackoff)
{
    std::atomic<int> calls{0};
    ServerConfig config;
    config.workers = 1;
    config.modelProvider =
        [&calls](int) -> Expected<std::shared_ptr<const nn::Network>> {
        if (calls.fetch_add(1) < 2)
            return makeError(Errc::linkExhausted, "injected fault");
        return fixedNet();
    };
    UvoltServer server(std::move(config));

    auto future = server.submitClassify(forestRequest(3, 9, 850));
    ASSERT_TRUE(future.ok());
    auto response = future.value().get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().attempts, 3);
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(server.stats().retried, 2u);
    EXPECT_EQ(server.stats().completed, 1u);
    server.stop();
}

TEST(ServeRetry, TransientFaultsGiveUpAfterThreeAttempts)
{
    std::atomic<int> calls{0};
    ServerConfig config;
    config.workers = 1;
    config.modelProvider =
        [&calls](int) -> Expected<std::shared_ptr<const nn::Network>> {
        calls.fetch_add(1);
        return makeError(Errc::linkExhausted, "injected fault");
    };
    UvoltServer server(std::move(config));

    auto future = server.submitClassify(forestRequest(3, 9, 850));
    ASSERT_TRUE(future.ok());
    auto response = future.value().get();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.code(), Errc::linkExhausted);
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(server.stats().retried, 2u);
    EXPECT_EQ(server.stats().failed, 1u);
    server.stop();
}

TEST(ServeRetry, NonTransientFaultsFailFast)
{
    std::atomic<int> calls{0};
    ServerConfig config;
    config.workers = 1;
    config.modelProvider =
        [&calls](int) -> Expected<std::shared_ptr<const nn::Network>> {
        calls.fetch_add(1);
        return makeError(Errc::corruptCache, "model image unusable");
    };
    UvoltServer server(std::move(config));

    auto future = server.submitClassify(forestRequest(3, 9, 850));
    ASSERT_TRUE(future.ok());
    auto response = future.value().get();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.code(), Errc::corruptCache);
    EXPECT_EQ(calls.load(), 1); // no retry burned on a permanent fault
    EXPECT_EQ(server.stats().retried, 0u);
    server.stop();
}

// --- the coalescer -------------------------------------------------------

TEST(ServeCoalesce, CoalescedBlocksAreBitIdenticalToScalarClassify)
{
    BlockableProvider gate;
    ServerConfig config;
    config.workers = 1;
    config.queueCapacity = 32;
    config.modelProvider = gate.provider();
    UvoltServer server(std::move(config));

    // Hold the worker on a first request, queue several more at the
    // same operating point, then release: the queued ones coalesce.
    // Their 14 + 15 + 16 + 17 + 18 = 80 samples fill one 64-sample
    // block and spill into a second, which splits the last request.
    std::vector<ClassifyRequest> requests;
    std::vector<std::future<Expected<ClassifyResponse>>> futures;
    for (int i = 0; i < 6; ++i)
        requests.push_back(
            forestRequest(i == 0 ? 3 : 13 + i, 100 + i, 850));
    {
        auto first = server.submitClassify(requests[0]);
        ASSERT_TRUE(first.ok());
        futures.push_back(std::move(first.value()));
    }
    while (gate.calls.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (std::size_t i = 1; i < requests.size(); ++i) {
        auto admitted = server.submitClassify(requests[i]);
        ASSERT_TRUE(admitted.ok());
        futures.push_back(std::move(admitted.value()));
    }
    gate.release.store(true);
    server.drain();

    bool any_coalesced = false;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        auto response = futures[i].get();
        ASSERT_TRUE(response.ok()) << "request " << i;
        // Bit-identity with the scalar path, member by member: block
        // packing across tenants must not change a single result.
        expectScalarClasses(requests[i], response.value().classes);
        any_coalesced |= response.value().coalesced;
    }
    EXPECT_TRUE(any_coalesced);
    // The second block holds only the rest of the last request.
    EXPECT_EQ(server.stats().coalescedBlocks, 1u);
    server.stop();
}

// --- degradation determinism --------------------------------------------

TEST(ServeHealth, ScriptedProfileIsDeterministicAcrossWorkerCounts)
{
    std::vector<std::vector<HealthTransition>> logs;
    for (std::size_t workers : {1u, 4u}) {
        ServerConfig config;
        config.workers = workers;
        config.modelProvider = fixedProvider();
        UvoltServer server(std::move(config));
        for (double pressure : stormThenCalm())
            server.observeFaultPressure(pressure);
        logs.push_back(server.healthTransitions());
        server.stop();
    }
    ASSERT_EQ(logs[0].size(), logs[1].size());
    for (std::size_t i = 0; i < logs[0].size(); ++i) {
        EXPECT_EQ(logs[0][i].observation, logs[1][i].observation);
        EXPECT_EQ(logs[0][i].state, logs[1][i].state);
        EXPECT_EQ(logs[0][i].floorRaiseMv, logs[1][i].floorRaiseMv);
    }
}

// --- lifecycle: stop, checkpoints, restart -------------------------------

TEST(ServeLifecycle, ResumesFromCheckpointAndMatchesFreshRun)
{
    const std::string dir = scratchDir("uvolt-serve-resume");

    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = 5;

    // The reference: the same campaign run directly, start to finish.
    pmbus::Board board(fpga::findPlatform("ZC702"));
    harness::SweepOptions reference_options;
    reference_options.runsPerLevel = request.runsPerLevel;
    reference_options.collectPerBram = true;
    auto reference =
        harness::tryRunCriticalSweep(board, reference_options);
    ASSERT_TRUE(reference.ok());

    // "Kill" a server mid-campaign: run two levels with the checkpoint
    // at exactly the server's path, as a stop(now) at a slice boundary
    // would leave it.
    const harness::FleetJob shape{request.platform, request.pattern,
                                  request.ambientC, std::nullopt};
    const std::string ckpt_path = dir + "/" + shape.label() + "-r5.ckpt";
    {
        pmbus::Board partial_board(fpga::findPlatform("ZC702"));
        harness::SweepCheckpoint checkpoint;
        harness::SweepOptions options = reference_options;
        options.maxLevels = 2;
        options.checkpoint = &checkpoint;
        options.checkpointPath = ckpt_path;
        auto partial =
            harness::tryRunCriticalSweep(partial_board, options);
        ASSERT_TRUE(partial.ok());
        ASSERT_TRUE(partial.value().truncated);
    }
    ASSERT_TRUE(std::filesystem::exists(ckpt_path));

    ServerConfig config;
    config.workers = 1;
    config.checkpointDir = dir;
    UvoltServer server(std::move(config));
    auto future = server.submitCharacterize(request);
    ASSERT_TRUE(future.ok());
    auto response = future.value().get();
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response.value().resumed);
    expectSameSweep(response.value().sweep, reference.value());
    // The finished request cleaned up its scratch checkpoint.
    EXPECT_FALSE(std::filesystem::exists(ckpt_path));
    server.stop();
}

TEST(ServeLifecycle, StopNowAnswersEverythingExactlyOnce)
{
    const std::string dir = scratchDir("uvolt-serve-stopnow");
    ServerConfig config;
    config.workers = 2;
    config.checkpointDir = dir;
    config.modelProvider = fixedProvider();
    UvoltServer server(std::move(config));

    std::vector<std::future<Expected<CharacterizeResponse>>> futures;
    for (int i = 0; i < 4; ++i) {
        CharacterizeRequest request;
        request.platform = "ZC702";
        request.runsPerLevel = 8;
        request.ambientC = 40.0 + 10.0 * i; // distinct shapes
        auto admitted = server.submitCharacterize(std::move(request));
        ASSERT_TRUE(admitted.ok());
        futures.push_back(std::move(admitted.value()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.stop(StopMode::now);

    // Exactly-once: every admitted future resolves — completed or
    // cancelled with serverStopped, never dropped, never twice.
    int completed = 0;
    int cancelled = 0;
    for (auto &future : futures) {
        auto response = future.get();
        if (response.ok())
            ++completed;
        else {
            EXPECT_EQ(response.code(), Errc::serverStopped);
            ++cancelled;
        }
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.admitted, 4u);
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(completed));
    EXPECT_EQ(stats.cancelled, static_cast<std::uint64_t>(cancelled));
    EXPECT_EQ(stats.completed + stats.failed, stats.admitted);
}

// --- identity under the fault injector -----------------------------------

TEST(ServeIdentity, InjectorOnAndOffAreBitIdentical)
{
    const std::string cache_dir = scratchDir("uvolt-serve-ident-cache");

    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = 5;

    auto run_once = [&](bool noisy) -> CharacterizeResponse {
        ServerConfig config;
        config.workers = 2;
        config.seed = 77;
        if (noisy) {
            pmbus::NoiseConfig noise =
                pmbus::NoiseConfig::harsh(0, 0.02);
            noise.spuriousCrashProb = 0.3;
            config.noise = noise;
        }
        UvoltServer server(std::move(config));
        auto future = server.submitCharacterize(request);
        EXPECT_TRUE(future.ok());
        auto response = future.value().get();
        EXPECT_TRUE(response.ok());
        server.stop();
        return response.take();
    };

    const CharacterizeResponse quiet = run_once(false);
    const CharacterizeResponse noisy = run_once(true);
    // The PR-1 masking guarantee, surfaced at the service boundary: the
    // harsh environment's faults are absorbed by retry/recovery and the
    // response payload is bit-identical.
    expectSameSweep(quiet.sweep, noisy.sweep);
    EXPECT_GT(noisy.sweep.resilience.linkRetransmits +
                  noisy.sweep.resilience.crashRecoveries +
                  noisy.sweep.resilience.pmbusRetries,
              0u);

    // And a successful characterize publishes the die's FVM for every
    // tenant: the cache serves it without a single new sweep.
    harness::FvmCache cache(cache_dir);
    ServerConfig config;
    config.workers = 1;
    config.fvmCache = &cache;
    UvoltServer server(std::move(config));
    auto future = server.submitCharacterize(request);
    ASSERT_TRUE(future.ok());
    ASSERT_TRUE(future.value().get().ok());
    server.stop();

    int characterizations = 0;
    auto obtained = cache.obtain(
        fpga::findPlatform(request.platform), request.pattern,
        request.runsPerLevel, [&]() -> Expected<harness::Fvm> {
            ++characterizations;
            return makeError(Errc::cacheMiss, "should not be called");
        });
    ASSERT_TRUE(obtained.ok());
    EXPECT_EQ(characterizations, 0);
}

TEST(ServeIdentity, RepeatedRequestsAreIdempotent)
{
    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = 4;

    ServerConfig config;
    config.workers = 2;
    config.noise = pmbus::NoiseConfig::harsh(0, 0.02);
    UvoltServer server(std::move(config));

    // The same request shape twice, concurrently: seeds derive from the
    // request content, not submission order, so both see the identical
    // campaign (and take turns on the shared checkpoint label).
    auto first = server.submitCharacterize(request);
    auto second = server.submitCharacterize(request);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    auto a = first.value().get();
    auto b = second.value().get();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    expectSameSweep(a.value().sweep, b.value().sweep);
    server.stop();
}

// --- backend (HBM, MoRS-SRAM) characterize -------------------------------

/** A backend characterize long enough to be cut at a slice boundary:
 *  every level re-reads the device this many times. */
constexpr int longRunsPerLevel = 20000;

class ServeBackend : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ServeBackend, SliceLengthNeverChangesTheSweep)
{
    // The server cuts a sweep into one-level slices; the fleet runs it
    // whole (slice length 0). Both go through runJobAttempt.
    harness::FleetPlan plan;
    plan.runsPerLevel = 4;
    const harness::FleetJob job{GetParam(), PatternSpec::fixed(0xAAAA),
                                50.0, std::nullopt};
    const auto sliced = [&](int slice_levels, int &checks) {
        checks = 0;
        const harness::SliceCheck count = [&]() -> Expected<void> {
            ++checks;
            return {};
        };
        auto outcome =
            harness::runJobAttempt(plan, job, 1, 0x5eed, {}, slice_levels,
                                   count);
        EXPECT_TRUE(outcome.ok()) << slice_levels;
        return outcome.ok() ? outcome.take().sweep : SweepResult{};
    };

    int checks = 0;
    const SweepResult reference = sliced(0, checks);
    EXPECT_EQ(reference.platform, GetParam());
    const std::size_t levels = reference.points.size();
    ASSERT_GT(levels, 1u);
    EXPECT_FALSE(reference.truncated);
    EXPECT_EQ(checks, 1);
    // The stateless per-(level, run) jitter stream: however the sweep
    // is cut into slices, the merged result is the same bits.
    for (int slice_levels : {1, 3, 1000}) {
        expectSameSweep(sliced(slice_levels, checks), reference);
        EXPECT_GE(static_cast<std::size_t>(checks),
                  (levels + slice_levels - 1) / slice_levels)
            << slice_levels;
    }

    // And the server's sliced path serves the sweep whole.
    ServerConfig config;
    config.workers = 1;
    UvoltServer server(std::move(config));
    CharacterizeRequest request;
    request.platform = GetParam();
    request.pattern = job.pattern;
    request.runsPerLevel = plan.runsPerLevel;
    auto served = server.submitCharacterize(request).orFatal().get();
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.value().sweep.points.size(), levels);
    EXPECT_FALSE(served.value().sweep.truncated);
    server.stop();
}

TEST_P(ServeBackend, RepeatedRequestsReturnTheIdenticalSweep)
{
    CharacterizeRequest request;
    request.platform = GetParam();
    request.runsPerLevel = 3;

    ServerConfig config;
    config.workers = 2;
    UvoltServer server(std::move(config));
    auto first = server.submitCharacterize(request);
    auto second = server.submitCharacterize(request);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    auto a = first.value().get();
    auto b = second.value().get();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    expectSameSweep(a.value().sweep, b.value().sweep);

    auto third = server.submitCharacterize(request);
    ASSERT_TRUE(third.ok());
    auto c = third.value().get();
    ASSERT_TRUE(c.ok());
    expectSameSweep(c.value().sweep, a.value().sweep);
    server.stop();
}

TEST_P(ServeBackend, DeadlineEndsTheSweepAtASliceBoundary)
{
    ServerConfig config;
    config.workers = 1;
    UvoltServer server(std::move(config));

    CharacterizeRequest request;
    request.platform = GetParam();
    request.runsPerLevel = longRunsPerLevel;
    request.deadlineMs = 30.0;
    auto future = server.submitCharacterize(std::move(request));
    ASSERT_TRUE(future.ok());
    auto response = future.value().get();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.code(), Errc::deadlineExceeded);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.deadlineExceeded, 1u);
    EXPECT_EQ(stats.failed, 1u);
    server.stop();
}

TEST_P(ServeBackend, StopNowEndsTheSweepAtASliceBoundary)
{
    ServerConfig config;
    config.workers = 1;
    UvoltServer server(std::move(config));

    CharacterizeRequest request;
    request.platform = GetParam();
    request.runsPerLevel = longRunsPerLevel;
    auto future = server.submitCharacterize(std::move(request));
    ASSERT_TRUE(future.ok());
    // Once the worker has taken the request, the sweep is in flight.
    while (server.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.stop(StopMode::now);

    auto response = future.value().get();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.code(), Errc::serverStopped);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ServeBackend,
                         ::testing::Values("HBM2-A", "MORS-SRAM-A"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (auto &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// --- observability -------------------------------------------------------

/** Enable telemetry for one test; restore and wipe on exit. */
class TelemetryOn
{
  public:
    TelemetryOn()
    {
        was_ = telemetry::Telemetry::enabled();
        telemetry::Registry::global().resetForTest();
        telemetry::Telemetry::setEnabled(true);
    }

    ~TelemetryOn()
    {
        telemetry::Telemetry::setEnabled(was_);
        telemetry::Registry::global().resetForTest();
    }

  private:
    bool was_;
};

/**
 * Every request admitted with telemetry on is one connected, well-
 * formed flow: exactly one start ("serve.admit"), at least one step
 * (the queue-wait hop), exactly one finish ("serve.request" or
 * "serve.reject"), and every child span's parent was recorded. Holds
 * at every worker count, including the degenerate single worker.
 */
void
expectServeFlowsWellFormed(std::size_t workers, std::size_t admitted)
{
    TelemetryOn guard;

    ServerConfig config;
    config.workers = workers;
    config.modelProvider = fixedProvider();
    config.blackboxDir = ""; // no dumps from this test
    UvoltServer server(std::move(config));

    std::vector<std::future<Expected<ClassifyResponse>>> classifies;
    for (std::size_t i = 0; i + 1 < admitted; ++i)
        classifies.push_back(
            server.submitClassify(forestRequest(4, 10 + i, 850))
                .orFatal());
    CharacterizeRequest characterize;
    characterize.platform = "ZC702";
    characterize.runsPerLevel = 3;
    auto sweep = server.submitCharacterize(characterize).orFatal();
    for (auto &future : classifies)
        ASSERT_TRUE(future.get().ok());
    ASSERT_TRUE(sweep.get().ok());
    server.stop();

    const auto events = telemetry::Registry::global().traceEvents();
    std::set<std::uint64_t> spans;
    for (const auto &event : events) {
        if (event.spanId != 0)
            spans.insert(event.spanId);
    }
    std::map<std::uint64_t, std::array<int, 3>> flows; // s, t, f
    for (const auto &event : events) {
        if (event.parentId != 0) {
            EXPECT_TRUE(spans.count(event.parentId))
                << event.name << " parents under an unrecorded span";
        }
        if (event.flowId != 0 &&
            event.flowPoint != telemetry::FlowPoint::none) {
            auto &counts = flows[event.flowId];
            switch (event.flowPoint) {
              case telemetry::FlowPoint::start: ++counts[0]; break;
              case telemetry::FlowPoint::step: ++counts[1]; break;
              default: ++counts[2]; break;
            }
        }
    }
    EXPECT_EQ(flows.size(), admitted) << "workers=" << workers;
    for (const auto &[flow, counts] : flows) {
        EXPECT_EQ(counts[0], 1) << "flow " << flow << " starts";
        EXPECT_GE(counts[1], 1) << "flow " << flow << " steps";
        EXPECT_EQ(counts[2], 1) << "flow " << flow << " finishes";
    }
}

TEST(ServeObservability, RequestFlowsWellFormedAtAnyWorkerCount)
{
    for (std::size_t workers : {1u, 2u, 8u})
        expectServeFlowsWellFormed(workers, 6);
}

TEST(ServeObservability, RefusedAdmissionStillClosesItsFlow)
{
    TelemetryOn guard;

    // Capacity 1, the worker wedged in a blocked model provider and a
    // characterize holding the one queue slot: the next submits hit
    // queueFull, and each refused admission must still be a closed flow
    // (one start, one "serve.reject" finish) — a half-open flow draws
    // forever-dangling arrows in the viewer.
    BlockableProvider gate;
    ServerConfig config;
    config.workers = 1;
    config.queueCapacity = 1;
    config.modelProvider = gate.provider();
    config.blackboxDir = "";
    UvoltServer server(std::move(config));

    auto busy = server.submitClassify(forestRequest(2, 99, 850)).orFatal();
    while (gate.calls.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    CharacterizeRequest slow;
    slow.platform = "ZC702";
    slow.runsPerLevel = 3;
    auto wedge = server.submitCharacterize(slow).orFatal();
    std::uint64_t rejected = 0;
    for (int i = 0; i < 32; ++i) {
        auto admitted = server.submitClassify(forestRequest(2, i, 850));
        if (admitted.ok())
            ASSERT_TRUE(admitted.take().get().ok());
        else
            ++rejected;
    }
    gate.release.store(true);
    ASSERT_TRUE(busy.get().ok());
    ASSERT_TRUE(wedge.get().ok());
    server.stop();

    std::map<std::uint64_t, std::pair<int, int>> flows; // starts, ends
    std::uint64_t reject_spans = 0;
    for (const auto &event :
         telemetry::Registry::global().traceEvents()) {
        reject_spans += std::string_view(event.name) == "serve.reject";
        if (event.flowId == 0)
            continue;
        if (event.flowPoint == telemetry::FlowPoint::start)
            ++flows[event.flowId].first;
        else if (event.flowPoint == telemetry::FlowPoint::finish)
            ++flows[event.flowId].second;
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_EQ(reject_spans, rejected);
    for (const auto &[flow, counts] : flows) {
        EXPECT_EQ(counts.first, 1) << "flow " << flow;
        EXPECT_EQ(counts.second, 1) << "flow " << flow;
    }
}

TEST(ServeObservability, DegradationTransitionDumpsBlackbox)
{
    const std::string dir = scratchDir("uvolt_serve_blackbox");
    blackbox::resetForTest();

    ServerConfig config;
    config.workers = 1;
    config.modelProvider = fixedProvider();
    config.blackboxDir = dir;
    UvoltServer server(std::move(config));

    // One completed request seeds the ring (an empty black box is
    // never written), then a scripted storm forces the transition.
    ASSERT_TRUE(server.submitClassify(forestRequest(2, 1, 850))
                    .orFatal()
                    .get()
                    .ok());
    note(LogLevel::info, "test", "storm incoming");
    for (int i = 0; i < 12; ++i)
        server.observeFaultPressure(3.0);
    EXPECT_EQ(server.healthState(), ServeState::degraded);
    server.stop();

    const std::string path = dir + "/blackbox_degraded.json";
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    auto parsed = json::Value::parse(content.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const json::Value &root = parsed.value();
    EXPECT_EQ(root.stringOr("schema", ""), "uvolt-blackbox-v1");
    const json::Value *events = root.find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->items().empty());
    // The transition note itself must be in the box: the dump happens
    // after the black box sees the "health normal -> degraded" event.
    bool transition_noted = false;
    std::uint64_t last_seq = 0;
    for (const json::Value &event : events->items()) {
        ASSERT_TRUE(event.isObject());
        const auto seq =
            static_cast<std::uint64_t>(event.numberOr("seq", 0));
        EXPECT_GT(seq, last_seq) << "seq must strictly increase";
        last_seq = seq;
        if (event.stringOr("component", "") == "serve" &&
            event.stringOr("message", "").find("degraded") !=
                std::string::npos)
            transition_noted = true;
    }
    EXPECT_TRUE(transition_noted);
    const auto dumps = blackbox::dumps();
    EXPECT_NE(std::find(dumps.begin(), dumps.end(), path), dumps.end());
    blackbox::resetForTest();
}

TEST(ServeObservability, DeadlineStormDumpsBlackbox)
{
    const std::string dir = scratchDir("uvolt_serve_deadline_storm");
    blackbox::resetForTest();

    ServerConfig config;
    config.workers = 1;
    config.modelProvider = fixedProvider();
    config.blackboxDir = dir;
    UvoltServer server(std::move(config));

    // Every request is born expired: each expiry extends the streak,
    // and the 8th in a row dumps the black box.
    const std::string path = dir + "/blackbox_deadline_storm.json";
    for (int i = 0; i < 8; ++i) {
        EXPECT_FALSE(std::filesystem::exists(path)) << i;
        ClassifyRequest request = forestRequest(2, 50 + i, 850);
        request.deadlineMs = 1e-3;
        auto future = server.submitClassify(std::move(request));
        ASSERT_TRUE(future.ok());
        const auto response = future.take().get();
        ASSERT_FALSE(response.ok());
        EXPECT_EQ(response.error().code, Errc::deadlineExceeded);
    }
    server.stop();

    EXPECT_TRUE(std::filesystem::exists(path));
    blackbox::resetForTest();
}

TEST(ServeObservability, StatusReportMatchesLedgerAndRenders)
{
    TelemetryOn guard;

    ServerConfig config;
    config.workers = 2;
    config.modelProvider = fixedProvider();
    config.blackboxDir = "";
    UvoltServer server(std::move(config));

    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(server.submitClassify(forestRequest(4, i, 850))
                        .orFatal()
                        .get()
                        .ok());
    ClassifyRequest hopeless = forestRequest(2, 99, 850);
    hopeless.deadlineMs = 1e-3;
    ASSERT_FALSE(
        server.submitClassify(std::move(hopeless)).orFatal().get().ok());
    CharacterizeRequest characterize;
    characterize.platform = "ZC702";
    characterize.runsPerLevel = 2;
    ASSERT_TRUE(server.submitCharacterize(std::move(characterize))
                    .orFatal()
                    .get()
                    .ok());
    // Stopping joins the workers, so every span they opened (each
    // closes just after its response is sent) is recorded.
    server.drain();
    server.stop();

    const StatusReport report = server.statusReport();
    const ServerStats stats = server.stats();
    EXPECT_EQ(report.stats.admitted, stats.admitted);
    EXPECT_EQ(report.stats.completed, stats.completed);
    EXPECT_EQ(report.stats.failed, stats.failed);
    EXPECT_EQ(report.queueDepth, 0u);
    EXPECT_EQ(report.queueCapacity, 64u);
    EXPECT_EQ(report.state, ServeState::normal);
    // 1 failure of 8 responses over the 5 % budget = 2.5 budgets.
    EXPECT_NEAR(report.errorBudgetBurn, (1.0 / 8.0) / 0.05, 1e-9);
    const std::string screen = report.render();
    EXPECT_GT(report.e2eP99Ms, 0.0);
    EXPECT_GT(report.classifyP50Ms, 0.0);
    // Hot frames are folded from the recorded spans: both request
    // classes show up, and the screen renders them.
    std::set<std::string> hot;
    for (const auto &frame : report.hotFrames)
        hot.insert(frame.name);
    EXPECT_TRUE(hot.count("serve.attempt")) << screen;
    EXPECT_TRUE(hot.count("serve.classify")) << screen;
    EXPECT_GT(report.profileNs, 0u);
    EXPECT_NE(screen.find("hot frames"), std::string::npos);
    EXPECT_NE(screen.find("state"), std::string::npos);
    EXPECT_NE(screen.find("normal"), std::string::npos);
    EXPECT_NE(screen.find("error budget    250.0% burned"),
              std::string::npos);
}

} // namespace
} // namespace uvolt::serve
