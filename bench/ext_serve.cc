/**
 * @file
 * Extension bench: the undervolting-as-a-service daemon under load.
 *
 * Two phases, both exercising the service-level contract the serving
 * layer adds on top of the harness:
 *
 *  1. Identity. A fixed set of characterize + classify requests is
 *     served twice — once on a quiet server and once with the PR 1
 *     fault injector storming every channel — and every response must
 *     be bit-identical. The masking guarantee ("the noisy run IS the
 *     clean run") has to survive admission, retries, coalescing and
 *     checkpointed slicing, not just the raw sweep loop.
 *
 *  2. Closed-loop load. N requests issued by C client threads, each
 *     waiting for its response before submitting the next (closed
 *     loop: rejections back off and retry, so admission control is
 *     exercised without open-loop overload artifacts). A seeded
 *     characterize/classify mix with a sprinkling of low-priority and
 *     already-expired requests. At the end the exactly-once ledger
 *     must balance: every admitted request was responded to exactly
 *     once, nothing lost, nothing duplicated, and the drained queue is
 *     empty. p50/p99 end-to-end latency and per-request cost go into
 *     the run's perf-timeline row (e2e_p50_ms / e2e_p99_ms /
 *     req_cost_ms), which scripts/check_perf.py holds to the committed
 *     baseline row.
 *
 * Exit status is the robustness verdict: nonzero when identity or the
 * exactly-once accounting fails — the CI soak leg runs this binary
 * under TSan with --noise and trusts the exit code.
 *
 * With telemetry on the run also leaves the full observability record
 * behind: a Chrome trace (--trace-out) where each sampled request is
 * one connected flow across admission -> queue -> worker, a Prometheus
 * text snapshot (--prom-out), any flight-recorder blackboxes
 * (--blackbox-dir; a scripted pressure storm under --noise guarantees
 * at least one degradation dump), the exact self-time profile of the
 * whole run folded from the recorded spans (--profile-out collapsed
 * stacks in ns, --flame-out self-contained flame graph), and a
 * run-ledger manifest recording where all of it went.
 * scripts/check_trace.py validates the lot in the CI observability
 * leg; the perf-timeline row also carries each profiled frame's
 * <frame>.self_ms.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.hh"
#include "harness/experiment.hh"
#include "harness/ledger.hh"
#include "harness/report.hh"
#include "harness/timeline.hh"
#include "nn/network.hh"
#include "pmbus/fault_injector.hh"
#include "serve/server.hh"
#include "util/cli.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "util/telemetry.hh"
#include "study.hh"

using namespace uvolt;

namespace
{

/** A small deterministic classifier shared by every phase. */
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

serve::ModelProvider
fixedProvider()
{
    return [](int) -> Expected<std::shared_ptr<const nn::Network>> {
        return fixedNet();
    };
}

/** Sample-major feature rows for @a count synthetic samples. */
serve::ClassifyRequest
forestRequest(std::size_t count, std::uint64_t seed, int setpoint_mv)
{
    const data::Dataset set = data::makeForestLike(count, seed);
    serve::ClassifyRequest request;
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

/** Canonical text form of a sweep, for bit-identity comparison. */
std::string
sweepDigest(const harness::SweepResult &sweep)
{
    std::string digest = sweep.platform + ";" + sweep.dieId;
    for (const auto &point : sweep.points) {
        digest += strFormat(";{}:{}", point.vccBramMv,
                            point.medianFaults);
        for (double count : point.runCounts)
            digest += strFormat("|{}", count);
        for (unsigned faults : point.perBramFaults)
            digest += strFormat(",{}", faults);
    }
    return digest;
}

/** What one server produced for the fixed identity request set. */
struct IdentityRun
{
    std::vector<std::string> sweeps;
    std::vector<std::vector<int>> classes;
};

/** Serve the fixed request set on a fresh server; harsh iff @a noise. */
IdentityRun
runIdentitySet(const std::optional<pmbus::NoiseConfig> &noise,
               std::uint64_t seed)
{
    serve::ServerConfig config;
    config.workers = 2;
    config.queueCapacity = 64;
    config.noise = noise;
    config.modelProvider = fixedProvider();
    config.seed = seed;
    serve::UvoltServer server(std::move(config));

    const std::vector<std::pair<std::string, harness::PatternSpec>>
        shapes{{"ZC702", harness::PatternSpec::allOnes()},
               {"ZC702", harness::PatternSpec::fixed(0xAAAA)},
               {"KC705-A", harness::PatternSpec::allOnes()}};
    std::vector<std::future<Expected<serve::CharacterizeResponse>>>
        characterizes;
    for (const auto &[platform, pattern] : shapes) {
        serve::CharacterizeRequest request;
        request.platform = platform;
        request.pattern = pattern;
        request.runsPerLevel = 3;
        characterizes.push_back(
            server.submitCharacterize(std::move(request)).orFatal());
    }
    std::vector<std::future<Expected<serve::ClassifyResponse>>>
        classifies;
    for (std::uint64_t i = 0; i < 12; ++i)
        classifies.push_back(
            server.submitClassify(forestRequest(16, 100 + i, 850))
                .orFatal());

    IdentityRun run;
    for (auto &future : characterizes)
        run.sweeps.push_back(sweepDigest(future.get().orFatal().sweep));
    for (auto &future : classifies)
        run.classes.push_back(future.get().orFatal().classes);
    server.stop();
    return run;
}

/** Everything one load-phase client thread observed. */
struct ClientLedger
{
    std::uint64_t submitted = 0;   ///< admitted by the server
    std::uint64_t okResponses = 0; ///< futures resolving with a value
    std::uint64_t errors = 0;      ///< futures resolving with an Error
    std::uint64_t queueFullRetries = 0;
    std::uint64_t shedRefusals = 0;
    std::vector<double> latenciesMs; ///< successful requests only
};

void
declareFlags(CliParser &cli)
{
    cli.addInt("requests", 1200, "total requests in the load phase");
    cli.addInt("clients", 8, "closed-loop client threads");
    cli.addInt("workers", 4, "server worker threads");
    cli.addInt("queue-capacity", 48, "admission-control queue bound");
    cli.addInt("seed", 7, "base seed for the request mix");
    cli.addBool("noise", "attach the harsh-environment injector");
    cli.addDouble("noise-p", 0.02, "per-channel injection probability");
    cli.addBool("skip-identity", "load phase only (quick runs)");
    cli.addString("trace-out", "results/ext_serve_trace.json",
                  "Chrome trace output (\"\" disables)");
    cli.addString("prom-out", "results/ext_serve_metrics.prom",
                  "Prometheus text snapshot (\"\" disables)");
    cli.addString("blackbox-dir", "results",
                  "flight-recorder dump directory (\"\" disables)");
    cli.addString("ledger-dir", "results/ledger",
                  "run-manifest directory (\"\" disables)");
    cli.addString("profile-out", "results/profile_ext_serve.folded",
                  "collapsed-stack profile (\"\" writes none)");
    cli.addString("flame-out", "results/profile_ext_serve.html",
                  "flame graph HTML (\"\" disables)");
    cli.addString("timeline", harness::Timeline::defaultPath(),
                  "perf-timeline JSONL to append to (\"\" disables)");
}

} // namespace

UVOLT_STUDY(ext_serve, declareFlags)
{
    const auto requests =
        static_cast<std::uint64_t>(cli.getInt("requests"));
    const auto clients = static_cast<std::size_t>(cli.getInt("clients"));
    const auto seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    const bool noisy = cli.getBool("noise");
    const double noise_p = cli.getDouble("noise-p");
    harness::TimelineRow row = harness::TimelineRow::start(
        "ext_serve",
        strFormat("serve;requests={};clients={};workers={};queue={};"
                  "noisy={};seed={}",
                  requests, clients, cli.getInt("workers"),
                  cli.getInt("queue-capacity"), noisy ? 1 : 0, seed));

    bool verdict_ok = true;

    // --- phase 1: bit-identity through the service boundary -------------
    if (!cli.getBool("skip-identity")) {
        std::printf("# phase 1: identity, injector off vs on "
                    "(p = %.3f per channel)\n",
                    noise_p);
        const IdentityRun quiet = runIdentitySet(std::nullopt, seed);
        pmbus::NoiseConfig storm =
            pmbus::NoiseConfig::harsh(11, noise_p);
        storm.spuriousCrashProb = 0.2;
        const IdentityRun stormy = runIdentitySet(storm, seed);
        const bool identical = quiet.sweeps == stormy.sweeps &&
            quiet.classes == stormy.classes;
        std::printf("  %zu sweeps + %zu classify batches: %s\n",
                    quiet.sweeps.size(), quiet.classes.size(),
                    identical ? "bit-identical" : "DIVERGED");
        verdict_ok = verdict_ok && identical;
    }

    // --- phase 2: closed-loop load ---------------------------------------
    std::printf("\n# phase 2: closed-loop load (%llu requests, %zu "
                "clients, %ld workers, queue %ld%s)\n",
                static_cast<unsigned long long>(requests), clients,
                cli.getInt("workers"), cli.getInt("queue-capacity"),
                noisy ? ", noisy" : "");
    serve::ServerConfig config;
    config.workers = static_cast<std::size_t>(cli.getInt("workers"));
    config.queueCapacity =
        static_cast<std::size_t>(cli.getInt("queue-capacity"));
    if (noisy)
        config.noise = pmbus::NoiseConfig::harsh(seed + 1, noise_p);
    config.modelProvider = fixedProvider();
    config.seed = seed;
    config.blackboxDir = cli.getString("blackbox-dir");
    serve::UvoltServer server(std::move(config));

    // One pre-verified request: the served classes must equal a direct
    // evaluation of the same model on the same samples.
    {
        const serve::ClassifyRequest probe = forestRequest(32, 999, 850);
        std::vector<int> expected;
        const data::Dataset set = data::makeForestLike(32, 999);
        for (std::size_t s = 0; s < 32; ++s)
            expected.push_back(fixedNet()->classify(set.sample(s)));
        const auto response =
            server.submitClassify(probe).orFatal().get().orFatal();
        const bool correct = response.classes == expected;
        std::printf("  served classes match direct evaluation: %s\n",
                    correct ? "yes" : "NO");
        verdict_ok = verdict_ok && correct;
    }

    std::atomic<std::uint64_t> next{0};
    std::vector<ClientLedger> ledgers(clients);
    const auto load_start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (std::size_t c = 0; c < clients; ++c) {
        pool.emplace_back([&, c] {
            ClientLedger &ledger = ledgers[c];
            for (std::uint64_t i = next.fetch_add(1); i < requests;
                 i = next.fetch_add(1)) {
                const auto start = std::chrono::steady_clock::now();
                std::future<Expected<serve::ClassifyResponse>> classify;
                std::future<Expected<serve::CharacterizeResponse>> sweep;
                const bool is_sweep = i % 64 == 0;
                for (;;) {
                    Error refusal;
                    if (is_sweep) {
                        serve::CharacterizeRequest request;
                        request.platform =
                            i % 128 == 0 ? "ZC702" : "KC705-A";
                        request.runsPerLevel = 3;
                        auto admitted = server.submitCharacterize(
                            std::move(request));
                        if (admitted.ok()) {
                            sweep = admitted.take();
                            break;
                        }
                        refusal = admitted.error();
                    } else {
                        serve::ClassifyRequest request = forestRequest(
                            8, seed * 100003 + i, 850);
                        request.priority = i % 8 == 7
                            ? serve::Priority::low
                            : serve::Priority::normal;
                        // A sprinkling of already-hopeless deadlines:
                        // they must fail cleanly, not leak.
                        if (i % 97 == 13)
                            request.deadlineMs = 1e-3;
                        auto admitted =
                            server.submitClassify(std::move(request));
                        if (admitted.ok()) {
                            classify = admitted.take();
                            break;
                        }
                        refusal = admitted.error();
                    }
                    if (refusal.code == Errc::loadShed) {
                        ++ledger.shedRefusals;
                        break; // a synchronous, final refusal
                    }
                    // Closed loop: a full queue means back off and
                    // retry the same request.
                    ++ledger.queueFullRetries;
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                }
                const bool admitted = sweep.valid() || classify.valid();
                if (!admitted)
                    continue;
                ++ledger.submitted;
                const bool ok = is_sweep ? sweep.get().ok()
                                         : classify.get().ok();
                if (ok) {
                    ++ledger.okResponses;
                    ledger.latenciesMs.push_back(study::msSince(start));
                } else {
                    ++ledger.errors;
                }
            }
        });
    }
    for (auto &thread : pool)
        thread.join();
    // Scripted pressure storm: drive the degradation state machine
    // through degraded and back so the health-transition flight-recorder
    // dump is exercised deterministically — the load mix alone may or
    // may not push the health score below the threshold.
    if (noisy) {
        for (int i = 0; i < 12; ++i)
            server.observeFaultPressure(3.0);
        for (int i = 0; i < 24; ++i)
            server.observeFaultPressure(0.0);
    }
    server.drain();
    const double load_ms = study::msSince(load_start);
    const auto stats = server.stats();
    const std::size_t depth_after_drain = server.queueDepth();
    const serve::StatusReport status = server.statusReport();
    server.stop();
    // Both phases' spans, folded after the timed window has closed.
    const harness::Profile profile =
        harness::foldSpans(telemetry::Registry::global().traceEvents());
    std::printf("\n# status at drain\n%s", status.render().c_str());

    // --- the exactly-once ledger -----------------------------------------
    ClientLedger total;
    std::vector<double> latencies;
    for (const auto &ledger : ledgers) {
        total.submitted += ledger.submitted;
        total.okResponses += ledger.okResponses;
        total.errors += ledger.errors;
        total.queueFullRetries += ledger.queueFullRetries;
        total.shedRefusals += ledger.shedRefusals;
        latencies.insert(latencies.end(), ledger.latenciesMs.begin(),
                         ledger.latenciesMs.end());
    }
    std::sort(latencies.begin(), latencies.end());
    const auto percentile = [&](double p) {
        if (latencies.empty())
            return 0.0;
        const auto index = static_cast<std::size_t>(
            p * static_cast<double>(latencies.size() - 1));
        return latencies[index];
    };
    const double p50_ms = percentile(0.50);
    const double p99_ms = percentile(0.99);
    const double throughput = load_ms > 0.0
        ? 1000.0 * static_cast<double>(stats.completed) / load_ms
        : 0.0;

    // +1 for the pre-verified probe request, admitted outside the pool.
    const bool balanced = stats.admitted == total.submitted + 1 &&
        stats.completed + stats.failed == stats.admitted &&
        total.okResponses + total.errors == total.submitted &&
        depth_after_drain == 0;
    verdict_ok = verdict_ok && balanced;

    TextTable table({"quantity", "value"});
    table.addRow({"admitted", std::to_string(stats.admitted)});
    table.addRow({"completed", std::to_string(stats.completed)});
    table.addRow({"failed", std::to_string(stats.failed)});
    table.addRow({"  deadline exceeded",
                  std::to_string(stats.deadlineExceeded)});
    table.addRow({"rejected (queue full)",
                  std::to_string(stats.rejected)});
    table.addRow({"shed (degraded)", std::to_string(stats.shed)});
    table.addRow({"transient retries", std::to_string(stats.retried)});
    table.addRow({"coalesced blocks",
                  std::to_string(stats.coalescedBlocks)});
    table.addRow({"client queue-full retries",
                  std::to_string(total.queueFullRetries)});
    table.addRow({"wall clock (ms)", fmtDouble(load_ms, 1)});
    table.addRow({"throughput (req/s)", fmtDouble(throughput, 1)});
    table.addRow({"e2e p50 (ms)", fmtDouble(p50_ms, 2)});
    table.addRow({"e2e p99 (ms)", fmtDouble(p99_ms, 2)});
    table.addRow({"exactly-once ledger",
                  balanced ? "balanced" : "IMBALANCED"});
    table.print(std::cout);
    writeCsv(table, "results/ext_serve.csv");

    if (!balanced)
        std::fprintf(stderr,
                     "IMBALANCED: admitted %llu, responded %llu, "
                     "client-side %llu, queue depth %zu\n",
                     static_cast<unsigned long long>(stats.admitted),
                     static_cast<unsigned long long>(stats.completed +
                                                     stats.failed),
                     static_cast<unsigned long long>(total.okResponses +
                                                     total.errors),
                     depth_after_drain);

    // --- observability artifacts + run ledger ----------------------------
    const std::string trace_out = cli.getString("trace-out");
    const std::string prom_out = cli.getString("prom-out");
    if (!trace_out.empty() && harness::writeChromeTrace(trace_out))
        std::printf("trace -> %s\n", trace_out.c_str());
    if (!prom_out.empty() &&
        harness::writePrometheus(telemetry::Registry::global().metrics(),
                                 prom_out))
        std::printf("prometheus -> %s\n", prom_out.c_str());
    const std::vector<std::string> blackboxes = blackbox::dumps();
    for (const auto &box : blackboxes)
        std::printf("blackbox -> %s\n", box.c_str());
    const std::string profile_out = cli.getString("profile-out");
    const std::string flame_out = cli.getString("flame-out");
    if (!profile_out.empty() && !profile.empty()) {
        const double profile_ms =
            static_cast<double>(profile.totalNs()) / 1e6;
        if (harness::writeFolded(profile, profile_out))
            std::printf("profile -> %s (%llu spans, %.1f ms, %zu "
                        "stacks)\n",
                        profile_out.c_str(),
                        static_cast<unsigned long long>(profile.spans),
                        profile_ms, profile.folded.size());
        if (!flame_out.empty() &&
            harness::writeFlameGraph(
                profile,
                strFormat("ext_serve — {} spans, {:.1f} ms",
                          profile.spans, profile_ms),
                flame_out))
            std::printf("flame graph -> %s\n", flame_out.c_str());
    }

    const std::string ledger_dir = cli.getString("ledger-dir");
    if (!ledger_dir.empty()) {
        harness::RunManifest manifest;
        manifest.tool = "UvoltServer";
        manifest.gitSha = row.gitSha;
        manifest.startedAtIso = row.startedAtIso;
        manifest.configDigest = row.configDigest;
        manifest.runId = strFormat(
            "{}-{}", manifest.configDigest.substr(0, 8),
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        manifest.workers = static_cast<std::uint64_t>(
            cli.getInt("workers"));
        manifest.durationMs = load_ms;
        manifest.artifacts.push_back("results/ext_serve.csv");
        manifest.tracePath = trace_out;
        manifest.prometheusPath = prom_out;
        manifest.blackboxPaths = blackboxes;
        for (const auto &[name, value] :
             telemetry::Registry::global().metrics().counters) {
            if (name.rfind("serve.", 0) == 0)
                manifest.counters.emplace_back(name, value);
        }
        if (auto recorded =
                harness::Ledger(ledger_dir).record(manifest);
            !recorded.ok()) {
            std::fprintf(stderr, "ledger: %s\n",
                         recorded.error().message.c_str());
        } else {
            std::printf("manifest -> %s/run_manifest.json\n",
                        ledger_dir.c_str());
        }
    }

    // --- perf timeline row ------------------------------------------------
    row.workers = static_cast<std::uint64_t>(cli.getInt("workers"));
    row.durationMs = load_ms;
    row.metrics = {
        {"e2e_p50_ms", p50_ms},
        {"e2e_p99_ms", p99_ms},
        {"req_cost_ms",
         stats.completed ? load_ms / static_cast<double>(stats.completed)
                         : 0.0},
        {"throughput_rps", throughput}};
    for (const auto &frame : profile.topFrames(SIZE_MAX))
        row.metrics.emplace_back(frame.name + ".self_ms",
                                 static_cast<double>(frame.self) / 1e6);
    harness::Timeline::record(cli.getString("timeline"), row);

    std::printf("shape: every admitted request answered exactly once, "
                "queue drained to\nempty, and the noisy identity run "
                "byte-equal to the quiet one\n");
    return verdict_ok ? 0 : 1;
}
