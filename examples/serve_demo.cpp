/**
 * @file
 * Example: run the repo as a service.
 *
 * Boots an UvoltServer — the fault-tolerant serving daemon in front of
 * the characterization harness and the batched inference engine — and
 * walks through the whole service contract in a few seconds:
 *
 *  1. submit a characterization campaign and a burst of classify
 *     batches (the classify burst coalesces into shared blocks),
 *  2. feed the health tracker a scripted fault-pressure storm and
 *     watch the daemon degrade (shed low-priority work, raise the
 *     setpoint floor) and then ramp back to normal,
 *  3. drain, print the exactly-once ledger and the transition audit.
 *
 * Every step is deterministic: rerunning the demo (same flags) prints
 * the same sweeps, the same classes, and the same transition log.
 *
 * With --watch the demo also runs as its own operator: a MetricsPulse
 * thread rewrites a Prometheus text snapshot on a fixed period while
 * the live statusReport() screen (health state, queue depth, latency
 * quantiles, error-budget burn, hot frames) prints between phases —
 * the same view `curl`ing a real exporter would give, without a
 * network stack. With UVOLT_TELEMETRY=ON the hot-frame block shows the
 * exact self time of every span recorded so far.
 *
 * Usage: serve_demo [--platform ZC702] [--workers 2] [--noise]
 *                   [--checkpoint-dir DIR] [--watch]
 *                   [--prom-out results/serve_demo_metrics.prom]
 */

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "data/synthetic.hh"
#include "harness/report.hh"
#include "nn/network.hh"
#include "pmbus/fault_injector.hh"
#include "serve/server.hh"
#include "util/cli.hh"

using namespace uvolt;

int
main(int argc, char **argv)
{
    CliParser cli("Undervolting-as-a-service demo daemon");
    cli.addString("platform", "ZC702", "board to characterize");
    cli.addInt("workers", 2, "serving threads");
    cli.addBool("noise", "serve through the harsh-environment injector");
    cli.addString("checkpoint-dir", "",
                  "characterize checkpoint directory (enables "
                  "resume-after-restart)");
    cli.addBool("watch", "print the live status screen between phases "
                         "and keep a Prometheus snapshot current");
    cli.addString("prom-out", "results/serve_demo_metrics.prom",
                  "--watch Prometheus snapshot path");
    cli.addInt("watch-period-ms", 50,
               "--watch snapshot rewrite period");
    // No orFatal() here: a daemon reports a typo'd flag through its
    // own channel instead of calling fatal().
    const auto parsed = cli.tryParse(argc, argv);
    if (!parsed.ok()) {
        std::fprintf(stderr, "serve_demo: %s\n",
                     parsed.error().message.c_str());
        return 2;
    }
    if (!parsed.value())
        return 0; // --help

    // A fixed classifier stands in for an undervolted accelerator; a
    // deployment would return accelerator.observedNetwork() here.
    auto mutable_net = std::make_shared<nn::Network>(std::vector<int>{
        data::forestFeatures, 16, data::forestClasses});
    mutable_net->initWeights(42);
    std::shared_ptr<const nn::Network> net = mutable_net;

    serve::ServerConfig config;
    config.workers = static_cast<std::size_t>(cli.getInt("workers"));
    config.checkpointDir = cli.getString("checkpoint-dir");
    if (cli.getBool("noise"))
        config.noise = pmbus::NoiseConfig::harsh(3, 0.02);
    config.modelProvider =
        [net](int) -> Expected<std::shared_ptr<const nn::Network>> {
        return net;
    };
    const std::size_t capacity = config.queueCapacity;
    serve::UvoltServer server(std::move(config));
    std::printf("daemon up: %ld workers, queue %zu, injector %s\n\n",
                cli.getInt("workers"), capacity,
                cli.getBool("noise") ? "on" : "off");

    // --watch: a periodic Prometheus snapshot (what an exporter would
    // serve over HTTP) plus the human status screen between phases.
    const bool watch = cli.getBool("watch");
    std::optional<harness::MetricsPulse> pulse;
    if (watch) {
        pulse.emplace(cli.getString("prom-out"),
                      std::chrono::milliseconds(std::max<long>(
                          1, cli.getInt("watch-period-ms"))));
    }
    const auto show_status = [&](const char *when) {
        if (!watch)
            return;
        std::printf("-- status: %s --\n%s\n", when,
                    server.statusReport().render().c_str());
    };

    // --- 1. a characterize and a coalescible classify burst -------------
    serve::CharacterizeRequest characterize;
    characterize.platform = cli.getString("platform");
    characterize.runsPerLevel = 3;
    auto sweep_future =
        server.submitCharacterize(characterize).orFatal();

    const data::Dataset set = data::makeForestLike(64, 5);
    std::vector<std::future<Expected<serve::ClassifyResponse>>> burst;
    for (int b = 0; b < 8; ++b) {
        serve::ClassifyRequest request;
        request.sampleCount = 8;
        request.setpointMv = 850;
        for (std::size_t s = 0; s < 8; ++s) {
            const auto row = set.sample(8 * b + s);
            request.samples.insert(request.samples.end(), row.begin(),
                                   row.end());
        }
        burst.push_back(server.submitClassify(request).orFatal());
    }

    const auto sweep = sweep_future.get().orFatal();
    std::printf("characterize %s: %zu voltage levels, %d attempt(s)%s\n",
                characterize.platform.c_str(),
                sweep.sweep.points.size(), sweep.attempts,
                sweep.resumed ? ", resumed from checkpoint" : "");
    int coalesced = 0;
    for (auto &future : burst) {
        const auto response = future.get().orFatal();
        coalesced += response.coalesced ? 1 : 0;
    }
    std::printf("classify burst: 8 batches x 8 samples, %d rode a "
                "coalesced block\n\n",
                coalesced);
    show_status("after the burst");

    // --- 2. a scripted fault-pressure storm ------------------------------
    std::printf("storm: pressure 3.0 x 12 observations, then calm\n");
    for (int i = 0; i < 12; ++i)
        server.observeFaultPressure(3.0);

    serve::ClassifyRequest low;
    low.sampleCount = 1;
    low.setpointMv = 850;
    const auto row = set.sample(0);
    low.samples.assign(row.begin(), row.end());
    low.priority = serve::Priority::low;
    const auto refused = server.submitClassify(low);
    std::printf("  state %s, floor +%d mV; low-priority submit: %s\n",
                serve::serveStateName(server.healthState()),
                server.floorRaiseMv(),
                refused.ok() ? "accepted (?)"
                             : refused.error().message.c_str());

    show_status("mid-storm (degraded)");

    for (int i = 0; i < 24; ++i)
        server.observeFaultPressure(0.0);
    std::printf("  after calm: state %s, floor +%d mV\n\n",
                serve::serveStateName(server.healthState()),
                server.floorRaiseMv());

    // --- 3. drain and audit ----------------------------------------------
    server.drain();
    show_status("drained");
    if (pulse) {
        pulse->stop(); // final snapshot write, then the thread joins
        std::printf("prometheus snapshot (%llu writes) -> %s\n",
                    static_cast<unsigned long long>(pulse->writes()),
                    cli.getString("prom-out").c_str());
    }
    const auto stats = server.stats();
    std::printf("ledger: admitted %llu = completed %llu + failed %llu "
                "(shed %llu, retried %llu)\n",
                static_cast<unsigned long long>(stats.admitted),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.retried));
    std::printf("health transitions:\n");
    for (const auto &transition : server.healthTransitions())
        std::printf("  obs %3llu: %-10s floor +%d mV\n",
                    static_cast<unsigned long long>(
                        transition.observation),
                    serve::serveStateName(transition.state),
                    transition.floorRaiseMv);
    server.stop();
    return stats.admitted == stats.completed + stats.failed ? 0 : 1;
}
