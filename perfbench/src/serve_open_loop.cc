/**
 * @file
 * Workload `serve_open_loop`: a two-worker UvoltServer under a seeded
 * open-loop arrival schedule. The calling thread is the load generator;
 * one collector thread timestamps completions. Each request is timed
 * from its scheduled send time, so a generator stall shows up as
 * latency of the requests behind it.
 *
 * Mix: 97 % classify (8 forest samples at 850 mV), 3 % characterize
 * (runsPerLevel 3), split between ZC702 (Board path) and HBM2-A
 * (MemoryDevice path). Rates climb a fixed ladder; the classify limit
 * is p99 <= 5 ms.
 */

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

#include "common.hh"
#include "data/synthetic.hh"
#include "serve/server.hh"
#include "util/rng.hh"

namespace perfbench
{

using namespace uvolt;

namespace
{

/** Rate ladder (req/s) and each rung's share of the run's seconds. */
struct Rung
{
    int rate;
    double share;
};
const Rung ladder[] = {{500, 0.25}, {1000, 0.45}, {2000, 0.15}, {4000, 0.15}};
constexpr int baseRate = 1000;
constexpr double classifyLimitMs = 5.0;   ///< p99 limit
constexpr double lagLimitOfGap = 0.5;     ///< lag p99 / mean gap
constexpr double backlogLimit = 16.0;     ///< in-flight growth, requests
constexpr double windowS = 0.5;           ///< measurement window
constexpr std::size_t characterizeEvery = 33; ///< ~3 % of arrivals
constexpr std::size_t samplesPerClassify = 8;
constexpr std::size_t payloadCount = 256;
constexpr int setpointMv = 850;
const char *characterizeDevices[] = {"ZC702", "HBM2-A"};

struct Names
{
    NameId build = spanName("loadgen.build");
    NameId wait = spanName("loadgen.wait");
    NameId admit = spanName("serve.admit");
    NameId drain = spanName("loadgen.drain");
};

/** One scheduled arrival. */
struct Arrival
{
    std::uint64_t offsetNs = 0; ///< from the rung's start
    bool characterize = false;
    std::uint32_t payload = 0; ///< classify payload or device index
};

/** A sent request the collector has yet to see complete. */
struct InFlight
{
    std::uint64_t dueNs = 0;
    std::uint32_t payload = 0;
    std::future<Expected<serve::ClassifyResponse>> classify;
    std::future<Expected<serve::CharacterizeResponse>> characterize;
};

/** What one rung measured. */
struct RungStats
{
    int rate = 0;
    std::size_t sent = 0;
    std::vector<double> classifyMs;     ///< successful classifies
    /** Successful characterizes, by characterizeDevices index. */
    std::vector<double> characterizeMs[2];
    std::vector<double> lagMs;          ///< actual - scheduled send
    std::vector<double> inFlight;       ///< sampled at every send
    std::size_t classifyFailed = 0;     ///< error responses (collector)
    std::size_t classifyRefused = 0;    ///< refused at admission
    std::size_t refusedQueueFull = 0;
    std::size_t refusedShed = 0;
    std::size_t maxQueueDepth = 0;

    // Rung totals over its windows.
    int windows = 0;
    int invalidWindows = 0;
    bool allWindowsInvalid = false;
    double backlogGrowthMax = 0.0;

    double classifyP99() const;
    double lagP99() const { return quantile(lagMs, 0.99); }
    double meanGapMs() const { return 1e3 / rate; }
    double backlogGrowth() const;
    bool valid() const;      ///< of one window: generator kept up
    bool meetsLimit() const; ///< of a rung
};

double
RungStats::classifyP99() const
{
    // Refused or failed requests miss the limit: they count as +inf.
    std::vector<double> all = classifyMs;
    all.insert(all.end(), classifyFailed + classifyRefused, 1e12);
    return quantile(all, 0.99);
}

double
RungStats::backlogGrowth() const
{
    if (inFlight.size() < 8)
        return 0.0;
    const std::size_t quarter = inFlight.size() / 4;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < quarter; ++i) {
        first += inFlight[i];
        last += inFlight[inFlight.size() - 1 - i];
    }
    return (last - first) / static_cast<double>(quarter);
}

bool
RungStats::valid() const
{
    return lagP99() <= lagLimitOfGap * meanGapMs() &&
           backlogGrowth() <= backlogLimit;
}

bool
RungStats::meetsLimit() const
{
    return !allWindowsInvalid && backlogGrowthMax <= backlogLimit &&
           classifyP99() <= classifyLimitMs;
}

std::vector<Arrival>
schedule(std::uint64_t seed, int rate, double seconds)
{
    // Evenly spaced arrivals; the seed picks the payloads and where in
    // each block of characterizeEvery arrivals the characterize falls.
    Rng rng(combineSeeds(seed, static_cast<std::uint64_t>(rate)));
    const auto count = static_cast<std::size_t>(seconds * rate);
    std::vector<Arrival> arrivals(count);
    std::uint32_t device = static_cast<std::uint32_t>(rng.uniformInt(0, 1));
    std::size_t slot = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (i % characterizeEvery == 0)
            slot = i + rng.uniformInt(0, characterizeEvery - 1);
        Arrival &arrival = arrivals[i];
        arrival.offsetNs = static_cast<std::uint64_t>(
            static_cast<double>(i) * 1e9 / rate);
        arrival.characterize = i == slot;
        arrival.payload = arrival.characterize
            ? (device ^= 1u)
            : static_cast<std::uint32_t>(rng.uniformInt(0, payloadCount - 1));
    }
    return arrivals;
}

/** Spin until @a due_ns: on this class of VM a sleeping thread's wake-up
 *  adds milliseconds at the tail, spinning keeps the lag in microseconds
 *  unless the host preempts the generator. */
void
waitUntil(std::uint64_t due_ns)
{
    while (nowNs() < due_ns) {
    }
}

/** Everything shared by the ladder's rungs. */
struct Bench
{
    Bench(const Options &options_, const Names &names_,
          serve::UvoltServer &server_,
          const std::vector<serve::ClassifyRequest> &payloads_)
        : options(options_), names(names_), server(server_),
          payloads(payloads_)
    {
    }

    const Options &options;
    const Names &names;
    serve::UvoltServer &server;
    const std::vector<serve::ClassifyRequest> &payloads;

    // Collector hand-off.
    std::mutex mutex; ///< guards incoming, finished
    std::condition_variable wake;
    std::deque<InFlight> incoming;
    bool finished = false;

    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> completed{0};

    // Responses, checked after the run (collector-owned until joined).
    std::vector<std::pair<std::uint32_t, std::vector<int>>> classes;
    std::vector<harness::SweepResult> sweeps[2];
    std::vector<std::string> errors;
    RungStats *rung = nullptr; ///< the window being collected
};

void
complete(Bench &bench, InFlight &item)
{
    const double latency_ms =
        static_cast<double>(nowNs() - item.dueNs) / 1e6;
    RungStats &rung = *bench.rung;
    if (item.classify.valid()) {
        auto response = item.classify.get();
        if (response.ok()) {
            rung.classifyMs.push_back(latency_ms);
            bench.classes.emplace_back(item.payload,
                                       std::move(response.value().classes));
        } else {
            ++rung.classifyFailed;
            bench.errors.push_back(response.error().message);
        }
    } else {
        auto response = item.characterize.get();
        if (response.ok()) {
            rung.characterizeMs[item.payload].push_back(latency_ms);
            bench.sweeps[item.payload].push_back(
                std::move(response.value().sweep));
        } else {
            bench.errors.push_back(response.error().message);
        }
    }
    bench.completed.fetch_add(1, std::memory_order_release);
}

/** The collector: poll characterizes, wait on the oldest classify. */
void
collectorLoop(Bench &bench)
{
    nameThisThread("collector");
    std::deque<InFlight> classify, characterize;
    for (;;) {
        {
            std::unique_lock lock(bench.mutex);
            if (classify.empty() && characterize.empty())
                bench.wake.wait(lock, [&] {
                    return bench.finished || !bench.incoming.empty();
                });
            if (bench.finished && bench.incoming.empty() &&
                classify.empty() && characterize.empty())
                return;
            while (!bench.incoming.empty()) {
                InFlight &front = bench.incoming.front();
                (front.classify.valid() ? classify : characterize)
                    .push_back(std::move(front));
                bench.incoming.pop_front();
            }
        }
        for (auto it = characterize.begin(); it != characterize.end();) {
            if (it->characterize.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                complete(bench, *it);
                it = characterize.erase(it);
            } else {
                ++it;
            }
        }
        if (classify.empty()) {
            if (!characterize.empty())
                std::this_thread::sleep_for(std::chrono::microseconds(100));
            continue;
        }
        if (classify.front().classify.wait_for(
                std::chrono::microseconds(100)) != std::future_status::ready)
            continue;
        while (!classify.empty() &&
               classify.front().classify.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
            complete(bench, classify.front());
            classify.pop_front();
        }
    }
}

/** Send one window's schedule, then wait until every response is in. */
void
runWindow(Bench &bench, int rate, std::uint64_t seed, RungStats &rung)
{
    rung.rate = rate;
    {
        std::lock_guard lock(bench.mutex);
        bench.rung = &rung;
    }
    const std::vector<Arrival> arrivals = schedule(seed, rate, windowS);
    const std::uint64_t start_ns = nowNs() + 1'000'000;
    for (const Arrival &arrival : arrivals) {
        const std::uint64_t due = start_ns + arrival.offsetNs;
        const std::uint64_t request_id = bench.sent.load() + 1;
        {
            Scope span(bench.names.wait, request_id);
            waitUntil(due);
        }
        InFlight item;
        item.dueNs = due;
        item.payload = arrival.payload;
        std::optional<serve::ClassifyRequest> classify;
        std::optional<serve::CharacterizeRequest> characterize;
        {
            Scope span(bench.names.build, request_id);
            if (arrival.characterize) {
                characterize.emplace();
                characterize->platform = characterizeDevices[arrival.payload];
                characterize->runsPerLevel = 3;
            } else {
                classify.emplace(bench.payloads[arrival.payload]);
            }
        }
        rung.lagMs.push_back(static_cast<double>(nowNs() - due) / 1e6);
        std::optional<Error> refusal;
        {
            Scope span(bench.names.admit, request_id);
            if (characterize) {
                auto admitted =
                    bench.server.submitCharacterize(std::move(*characterize));
                if (admitted.ok())
                    item.characterize = admitted.take();
                else
                    refusal = admitted.error();
            } else {
                auto admitted =
                    bench.server.submitClassify(std::move(*classify));
                if (admitted.ok())
                    item.classify = admitted.take();
                else
                    refusal = admitted.error();
            }
        }
        ++rung.sent;
        const std::uint64_t sent = bench.sent.fetch_add(1) + 1;
        rung.inFlight.push_back(static_cast<double>(
            sent - bench.completed.load(std::memory_order_acquire)));
        if ((rung.sent & 7) == 0)
            rung.maxQueueDepth =
                std::max(rung.maxQueueDepth, bench.server.queueDepth());
        if (refusal) {
            bench.completed.fetch_add(1);
            rung.refusedQueueFull += refusal->code == Errc::queueFull;
            rung.refusedShed += refusal->code == Errc::loadShed;
            if (!arrival.characterize)
                ++rung.classifyRefused;
            continue;
        }
        std::lock_guard lock(bench.mutex);
        bench.incoming.push_back(std::move(item));
        bench.wake.notify_one();
    }
    Scope span(bench.names.drain);
    while (bench.completed.load(std::memory_order_acquire) <
           bench.sent.load())
        std::this_thread::sleep_for(std::chrono::microseconds(200));
}

void
merge(RungStats &into, const RungStats &window)
{
    const auto append = [](std::vector<double> &to,
                           const std::vector<double> &from) {
        to.insert(to.end(), from.begin(), from.end());
    };
    into.sent += window.sent;
    append(into.classifyMs, window.classifyMs);
    for (int d = 0; d < 2; ++d)
        append(into.characterizeMs[d], window.characterizeMs[d]);
    append(into.lagMs, window.lagMs);
    append(into.inFlight, window.inFlight);
    into.classifyFailed += window.classifyFailed;
    into.classifyRefused += window.classifyRefused;
    into.refusedQueueFull += window.refusedQueueFull;
    into.refusedShed += window.refusedShed;
    into.maxQueueDepth = std::max(into.maxQueueDepth, window.maxQueueDepth);
    into.backlogGrowthMax =
        std::max(into.backlogGrowthMax, window.backlogGrowth());
}

/**
 * One rung: its share of the run, sent as a fixed number of windows of
 * windowS seconds (so call counts repeat exactly for a seed). A window
 * in which the generator lagged (host preemption) is invalid and its
 * latencies are not reported, unless no window of the rung was valid.
 * Failures and refusals count whatever the window.
 */
void
runRung(Bench &bench, const Rung &rung_spec, RungStats &rung,
        RungStats &invalid)
{
    rung.rate = invalid.rate = rung_spec.rate;
    const int windows = std::max(
        2, static_cast<int>(std::lround(rung_spec.share *
                                        bench.options.seconds / windowS)));
    int valid = 0;
    for (int w = 0; w < windows; ++w) {
        RungStats window;
        runWindow(bench, rung_spec.rate,
                  combineSeeds(bench.options.seed,
                               combineSeeds(static_cast<std::uint64_t>(
                                                rung_spec.rate),
                                            static_cast<std::uint64_t>(w))),
                  window);
        ++rung.windows;
        if (window.valid()) {
            ++valid;
            merge(rung, window);
        } else {
            ++rung.invalidWindows;
            merge(invalid, window);
        }
    }
    if (valid == 0) {
        merge(rung, invalid); // nothing valid: report what was seen
        rung.allWindowsInvalid = true;
    }
}


/** A fresh server + collector running the whole ladder. */
struct LadderRun
{
    std::vector<RungStats> rungs;   ///< valid windows of each rung
    std::vector<RungStats> invalid; ///< invalid windows of each rung
    double wallS = 0.0;
    serve::ServerStats stats;
    std::vector<std::pair<std::uint32_t, std::vector<int>>> classes;
    std::vector<harness::SweepResult> sweeps[2];
    std::vector<std::string> errors;
    std::uint64_t windowStart = 0, windowEnd = 0;
};

serve::ServerConfig
serverConfig(const Options &options,
             const std::shared_ptr<const nn::Network> &net)
{
    serve::ServerConfig config;
    config.workers = 2;
    config.queueCapacity = 64;
    config.seed = options.seed;
    config.blackboxDir = "";
    config.modelProvider =
        [net](int) -> Expected<std::shared_ptr<const nn::Network>> {
        return net;
    };
    return config;
}

LadderRun
runLadder(const Options &options, const Names &names,
          serve::UvoltServer &server,
          const std::vector<serve::ClassifyRequest> &payloads)
{
    LadderRun run;
    Bench bench(options, names, server, payloads);
    run.rungs.resize(std::size(ladder));
    run.invalid.resize(std::size(ladder));
    std::thread collector(collectorLoop, std::ref(bench));
    run.windowStart = nowNs();
    for (std::size_t r = 0; r < std::size(ladder); ++r)
        runRung(bench, ladder[r], run.rungs[r], run.invalid[r]);
    run.windowEnd = nowNs();
    run.wallS = static_cast<double>(run.windowEnd - run.windowStart) / 1e9;
    {
        std::lock_guard lock(bench.mutex);
        bench.finished = true;
        bench.wake.notify_one();
    }
    collector.join();
    server.drain();
    run.stats = server.stats();
    run.classes = std::move(bench.classes);
    run.sweeps[0] = std::move(bench.sweeps[0]);
    run.sweeps[1] = std::move(bench.sweeps[1]);
    run.errors = std::move(bench.errors);
    return run;
}

/** After the run: every response against a direct evaluation. */
void
checkResponses(const LadderRun &run, const nn::Network &net,
               const std::vector<serve::ClassifyRequest> &payloads,
               const Options &options, Result &result)
{
    std::vector<std::vector<int>> expected(payloads.size());
    for (std::size_t p = 0; p < payloads.size(); ++p) {
        const auto &samples = payloads[p].samples;
        const std::size_t width = samples.size() / payloads[p].sampleCount;
        for (std::size_t s = 0; s < payloads[p].sampleCount; ++s)
            expected[p].push_back(net.classify(
                std::span<const float>(samples).subspan(s * width, width)));
    }
    if (options.wrongExpected && !run.classes.empty())
        expected[run.classes.front().first].front() += 1;
    std::size_t wrong = 0;
    for (const auto &[payload, classes] : run.classes)
        wrong += classes != expected[payload];
    for (std::size_t i = 0; i < wrong; ++i)
        result.fail("classify response differs from Network::classify");
    for (const auto &sweeps : run.sweeps) {
        for (const auto &sweep : sweeps) {
            if (!sameSweep(sweep, sweeps.front()))
                result.fail("characterize responses of one shape differ (" +
                            sweep.platform + ")");
        }
    }
    for (const std::string &error : run.errors)
        result.fail("request failed: " + error);
}

std::string
rungLine(const RungStats &rung)
{
    char line[320];
    std::snprintf(line, sizeof line,
                  "rung %d req/s: classify p50 %.3f p90 %.3f p99 %.3f ms "
                  "(n = %zu), generator lag p99 %.3f ms, backlog growth "
                  "%.1f, %d of %d windows invalid%s",
                  rung.rate, quantile(rung.classifyMs, 0.5),
                  quantile(rung.classifyMs, 0.9), rung.classifyP99(),
                  rung.classifyMs.size(), rung.lagP99(),
                  rung.backlogGrowthMax, rung.invalidWindows, rung.windows,
                  rung.meetsLimit() ? ", meets limit" : ", misses limit");
    return line;
}

} // namespace

Result
runServeOpenLoop(const Options &options)
{
    Result result;
    const Names names;
    nameThisThread("generator");
    auto net = std::make_shared<nn::Network>(std::vector<int>{
        data::forestFeatures, 16, data::forestClasses});
    net->initWeights(42);
    std::vector<serve::ClassifyRequest> payloads;
    for (std::size_t p = 0; p < payloadCount; ++p) {
        const data::Dataset set = data::makeForestLike(
            samplesPerClassify, combineSeeds(options.seed, p));
        serve::ClassifyRequest request;
        request.sampleCount = samplesPerClassify;
        request.setpointMv = setpointMv;
        for (std::size_t s = 0; s < samplesPerClassify; ++s) {
            const auto row = set.sample(s);
            request.samples.insert(request.samples.end(), row.begin(),
                                   row.end());
        }
        payloads.push_back(std::move(request));
    }
    std::optional<serve::UvoltServer> server;
    server.emplace(serverConfig(options, net));
    // Warm-up: one request of every shape, so process-wide lazy state
    // (die personalities, allocator pools) is built before timing.
    for (const char *device : characterizeDevices) {
        serve::CharacterizeRequest request;
        request.platform = device;
        request.runsPerLevel = 3;
        auto admitted = server->submitCharacterize(std::move(request));
        if (!admitted.ok() || !admitted.take().get().ok())
            result.fail(std::string("warm-up characterize of ") + device);
    }
    auto admitted = server->submitClassify(payloads.front());
    if (!admitted.ok() || !admitted.take().get().ok())
        result.fail("warm-up classify");
    result.setupS = secondsSinceStart();
    if (options.setupOnly)
        return result;

    LadderRun plain = runLadder(options, names, *server, payloads);
    server->stop();
    LadderRun traced;
    if (options.trace) {
        server.emplace(serverConfig(options, net));
        enableTracing();
        traced = runLadder(options, names, *server, payloads);
        disableTracing();
        server->stop();
    }

    // Refusals count as failed operations up to the base rate; above it
    // the rungs probe for the limit, and a refusal there is admission
    // control doing its job: the rung misses the limit instead.
    const auto account_ladder = [&](const LadderRun &run) {
        for (const auto *rungs : {&run.rungs, &run.invalid}) {
            for (const RungStats &rung : *rungs) {
                result.attempted += rung.sent;
                if (rung.rate > baseRate)
                    continue;
                for (std::size_t i = 0;
                     i < rung.refusedQueueFull + rung.refusedShed; ++i)
                    result.fail("request refused at " +
                                std::to_string(rung.rate) + " req/s");
            }
        }
        checkResponses(run, *net, payloads, options, result);
    };
    account_ladder(plain);
    if (options.trace)
        account_ladder(traced);

    int goodput = 0;
    const RungStats *base = nullptr;
    for (const RungStats &rung : plain.rungs) {
        if (rung.meetsLimit())
            goodput = std::max(goodput, rung.rate);
        if (rung.rate == baseRate)
            base = &rung;
        result.notes.push_back(rungLine(rung));
    }
    for (int d = 0; d < 2; ++d) {
        const auto &ms = base->characterizeMs[d];
        result.notes.push_back(withCount(
            std::string("characterize ") + characterizeDevices[d] +
                " p50 @ base",
            quantile(ms, 0.5), "ms", ms.size()));
        result.notes.push_back(withCount(
            std::string("characterize ") + characterizeDevices[d] +
                " p90 @ base",
            quantile(ms, 0.9), "ms", ms.size()));
    }
    result.notes.push_back(
        "goodput = " + std::to_string(goodput) + " req/s (classify p99 <= " +
        std::to_string(classifyLimitMs) + " ms, no growing backlog)");

    // End to end: the MemoryDevice-path characterize request's median
    // latency at the base rate (see perfbench/README.md for why the
    // classify tail is reported per layer instead).
    const auto &mem_path = base->characterizeMs[1];
    if (!options.trace) {
        result.add("work_s", quantile(mem_path, 0.5) / 1e3, "s");
        return result;
    }

    // Untraced ladder: the serving figures.
    result.add("serve.classify.p50_ms", quantile(base->classifyMs, 0.5),
               "ms");
    result.add("serve.classify.p99_ms", base->classifyP99(), "ms");
    result.add("serve.classify.samples",
               static_cast<double>(base->classifyMs.size()), "count");
    for (int d = 0; d < 2; ++d) {
        const std::string prefix = std::string("serve.characterize.") +
            (d == 0 ? "board" : "mem");
        const auto &ms = base->characterizeMs[d];
        result.add(prefix + ".p50_ms", quantile(ms, 0.5), "ms");
        result.add(prefix + ".p90_ms", quantile(ms, 0.9), "ms");
        result.add(prefix + ".samples", static_cast<double>(ms.size()),
                   "count");
    }
    result.add("serve.goodput_rps", goodput, "1/s");
    std::vector<double> all_lag;
    int invalid_windows = 0;
    for (const RungStats &rung : plain.rungs) {
        const std::string rate = std::to_string(rung.rate);
        result.add("serve.rung." + rate + ".classify_p99_ms",
                   rung.classifyP99(), "ms");
        result.add("loadgen.rung." + rate + ".lag_p99_ms", rung.lagP99(),
                   "ms");
        result.add("loadgen.rung." + rate + ".backlog_growth",
                   rung.backlogGrowthMax, "count");
        all_lag.insert(all_lag.end(), rung.lagMs.begin(), rung.lagMs.end());
        invalid_windows += rung.invalidWindows;
    }
    for (const RungStats &rung : plain.invalid)
        all_lag.insert(all_lag.end(), rung.lagMs.begin(), rung.lagMs.end());
    result.add("loadgen.lag_p99_ms", quantile(all_lag, 0.99), "ms");
    result.add("loadgen.invalid_windows", invalid_windows, "count");

    // Traced ladder: layer accounting and the server's own counters.
    emitAccounting(result, layerNames(), "generator", traced.windowStart,
                   traced.windowEnd);
    std::vector<double> admit_us;
    for (double ms : durationsMs(names.admit))
        admit_us.push_back(ms * 1e3);
    result.add("serve.admit.p99_us", quantile(admit_us, 0.99), "us");
    std::size_t queue_full = 0, shed = 0, max_depth = 0, sent = 0;
    for (const auto *rungs : {&traced.rungs, &traced.invalid}) {
        for (const RungStats &rung : *rungs) {
            queue_full += rung.refusedQueueFull;
            shed += rung.refusedShed;
            max_depth = std::max(max_depth, rung.maxQueueDepth);
            sent += rung.sent;
        }
    }
    result.add("serve.refused.queue_full", queue_full, "count");
    result.add("serve.refused.shed", shed, "count");
    result.add("serve.failed.deadline", traced.stats.deadlineExceeded,
               "count");
    result.add("serve.retries", traced.stats.retried, "count");
    result.add("serve.queue_depth.max", max_depth, "count");
    result.add("serve.coalesced_blocks_per_1k",
               1e3 * static_cast<double>(traced.stats.coalescedBlocks) /
                   static_cast<double>(sent),
               "count");
    result.add("trace.overhead_ratio", traced.wallS / plain.wallS, "x");
    return result;
}

} // namespace perfbench
