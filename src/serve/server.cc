#include "serve/server.hh"

#include <algorithm>
#include <cmath>

#include "fpga/floorplan.hh"
#include "harness/fvm.hh"
#include "harness/ledger.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"

namespace uvolt::serve
{

namespace
{

constexpr int attemptsPerRequest = 3; ///< tries on transient faults
constexpr double backoffFirstMs = 1.0; ///< first retry delay, doubling
constexpr double backoffCapMs = 50.0;  ///< cap on the doubled delay
constexpr double backoffJitterSpanMs = 1.0; ///< seeded jitter on top

/** Sweep levels between a characterize's stop/deadline checks. */
constexpr int levelsPerSlice = 1;

/** Consecutive deadline expiries that dump the flight recorder. */
constexpr int deadlineStormExpiries = 8;

/** Tolerated failed/responded fraction behind errorBudgetBurn. */
constexpr double failureBudget = 0.05;

/**
 * Latency bucket ladder reaching @a ceiling_ms. The old fixed ladder
 * topped out at 5000 ms, which a long characterize (full sweep, high
 * runs-per-level) blows straight past — every such request landed in
 * the overflow bucket and HistogramSnapshot::quantile() saturated at
 * 5000, silently under-reporting p99. The ladder now extends in rough
 * half-decade steps to the configured ceiling (default 600 s), still
 * inside the registry's 24-bound budget.
 */
std::vector<double>
latencyBoundsMs(double ceiling_ms)
{
    std::vector<double> bounds{0.05, 0.1, 0.5,  1,   2,    5,    10,
                               20,   50,  100,  200, 500,  1000, 2000,
                               5000, 1e4, 3e4,  6e4, 12e4, 30e4};
    while (!bounds.empty() && bounds.back() > ceiling_ms)
        bounds.pop_back();
    if (bounds.empty() || bounds.back() < ceiling_ms)
        bounds.push_back(ceiling_ms);
    return bounds;
}

struct ServeMetrics
{
    telemetry::Counter &admitted =
        telemetry::Registry::global().counter("serve.admitted");
    telemetry::Counter &rejected =
        telemetry::Registry::global().counter("serve.rejected");
    telemetry::Counter &degraded =
        telemetry::Registry::global().counter("serve.degraded");
    telemetry::Counter &deadlineExceeded =
        telemetry::Registry::global().counter("serve.deadline_exceeded");
    telemetry::Counter &retried =
        telemetry::Registry::global().counter("serve.retried");
    telemetry::Counter &completed =
        telemetry::Registry::global().counter("serve.completed");
    telemetry::Counter &failed =
        telemetry::Registry::global().counter("serve.failed");
    telemetry::Counter &cancelled =
        telemetry::Registry::global().counter("serve.cancelled");
    telemetry::Counter &coalescedBlocks = telemetry::Registry::global()
        .counter("serve.coalesced_blocks");
    telemetry::Counter &resumes =
        telemetry::Registry::global().counter("serve.resumes");
    telemetry::Gauge &queueDepth =
        telemetry::Registry::global().gauge("serve.queue_depth");
    telemetry::Histogram &queueWaitMs =
        telemetry::Registry::global().histogram(
            "serve.queue_wait_ms", latencyBoundsMs(6e5));
    telemetry::Histogram &e2eMs =
        telemetry::Registry::global().histogram("serve.e2e_ms",
                                                latencyBoundsMs(6e5));
    telemetry::Histogram &characterizeMs =
        telemetry::Registry::global().histogram(
            "serve.characterize_ms", latencyBoundsMs(6e5));
    telemetry::Histogram &classifyMs =
        telemetry::Registry::global().histogram(
            "serve.classify_ms", latencyBoundsMs(6e5));
};

ServeMetrics &
serveMetrics()
{
    static ServeMetrics metrics;
    return metrics;
}

/** Fault classes a backoff-and-retry can plausibly clear. */
bool
transientErrc(Errc code)
{
    switch (code) {
      case Errc::crashDetected:
      case Errc::linkExhausted:
      case Errc::pmbusExhausted:
      case Errc::verifyExhausted:
      case Errc::recoveryExhausted:
      case Errc::badCheckpoint:
        return true;
      default:
        return false;
    }
}

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** Canonical request description the per-request seed digests. */
std::string
canonicalCharacterize(const CharacterizeRequest &request)
{
    return strFormat("characterize;{};{};t{:.1f};runs={}",
                     request.platform, request.pattern.label(),
                     request.ambientC, request.runsPerLevel);
}

/** End-to-end latency into both the shared and the per-class series. */
void
observeE2e(const char *kind, double e2e_ms)
{
    serveMetrics().e2eMs.observe(e2e_ms);
    if (std::string_view(kind) == "characterize")
        serveMetrics().characterizeMs.observe(e2e_ms);
    else
        serveMetrics().classifyMs.observe(e2e_ms);
}

/**
 * One per-request trace span covering queue wait + execution. With an
 * active context this is the request flow's terminal point — in
 * Perfetto the arrow chain admission -> queue wait -> execution ends
 * here, whatever thread each hop ran on.
 */
void
recordRequestSpan(const char *kind, std::uint64_t id,
                  const telemetry::TraceContext &ctx, double e2e_ms,
                  bool ok)
{
    if (!telemetry::Telemetry::enabled())
        return;
    auto &registry = telemetry::Registry::global();
    const auto duration =
        static_cast<std::uint64_t>(std::max(0.0, e2e_ms) * 1e6);
    const std::uint64_t end = registry.nowNs();
    const std::uint64_t start = end > duration ? end - duration : 0;
    telemetry::TraceArgs args{{"kind", kind},
                              {"id", std::to_string(id)},
                              {"ok", ok ? "1" : "0"}};
    if (ctx.active()) {
        registry.recordFlowSpan("serve.request", start, duration, ctx,
                                telemetry::FlowPoint::finish,
                                std::move(args));
    } else {
        registry.recordSpan("serve.request", start, duration,
                            std::move(args));
    }
}

} // namespace

UvoltServer::UvoltServer(ServerConfig config)
    : config_(std::move(config)), queue_(std::max<std::size_t>(
          1, config_.queueCapacity))
{
    if (config_.workers == 0)
        fatal("UvoltServer needs at least one worker");
    workers_.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i) {
        workers_.emplace_back(
            [this, name = strFormat("serve-worker-{}", i)]() mutable {
                telemetry::setCurrentThreadName(std::move(name));
                workerLoop();
            });
    }
}

UvoltServer::~UvoltServer()
{
    stop(StopMode::now);
}

template <typename Request, typename Response>
Expected<std::future<Expected<Response>>>
UvoltServer::admit(Request request)
{
    if (!accepting_.load(std::memory_order_relaxed)) {
        return makeError(Errc::serverStopped,
                         "server is draining or stopped");
    }
    if (request.priority == Priority::low) {
        std::unique_lock lock(healthMutex_);
        if (health_.sheddingLowPriority()) {
            lock.unlock();
            {
                std::unique_lock stats(statsMutex_);
                ++stats_.shed;
            }
            serveMetrics().degraded.increment();
            return makeError(Errc::loadShed,
                             "degraded: shedding low-priority work");
        }
    }

    Pending pending;
    pending.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    pending.priority = request.priority;
    pending.submitted = Clock::now();
    pending.deadline =
        request.deadlineMs > 0.0
            ? pending.submitted +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          request.deadlineMs))
            : Clock::time_point::max();

    using Work = std::conditional_t<
        std::is_same_v<Response, CharacterizeResponse>,
        CharacterizeWork, ClassifyWork>;
    Work work;
    work.request = std::move(request);
    auto future = work.promise.get_future();
    pending.work = std::move(work);

    // Mint the request's trace flow before the push: the admission span
    // must exist before any worker can pop the item and parent spans
    // under it. The span id travels in the queue item; every later hop
    // (queue wait, execution, terminal response) joins this flow.
    if (telemetry::Telemetry::enabled()) {
        pending.submitNs = telemetry::nowNs();
        pending.trace.flowId = telemetry::mintFlowId();
        pending.trace.spanId = telemetry::recordFlowSpan(
            "serve.admit", pending.submitNs, 0,
            telemetry::TraceContext{pending.trace.flowId, 0},
            telemetry::FlowPoint::start,
            {{"kind", std::is_same_v<Response, CharacterizeResponse>
                          ? "characterize"
                          : "classify"},
             {"id", std::to_string(pending.id)}});
    }
    const telemetry::TraceContext trace = pending.trace;

    // Counted before the push: a worker may pop and respond before this
    // thread runs another instruction, and the drain predicate must
    // never observe a response without its admission.
    unresponded_.fetch_add(1, std::memory_order_acq_rel);
    if (auto pushed = queue_.tryPush(std::move(pending));
        !pushed.ok()) {
        unresponded_.fetch_sub(1, std::memory_order_acq_rel);
        if (pushed.error().code == Errc::queueFull) {
            {
                std::unique_lock stats(statsMutex_);
                ++stats_.rejected;
            }
            serveMetrics().rejected.increment();
        }
        // Close the flow so every minted flow stays well-formed (one
        // start, one finish) even for refused work.
        if (trace.active()) {
            telemetry::recordFlowSpan(
                "serve.reject", telemetry::nowNs(), 0, trace,
                telemetry::FlowPoint::finish,
                {{"why", pushed.error().code == Errc::queueFull
                             ? "queue_full"
                             : "stopped"}});
        }
        return pushed.error();
    }
    {
        std::unique_lock stats(statsMutex_);
        ++stats_.admitted;
    }
    serveMetrics().admitted.increment();
    serveMetrics().queueDepth.set(
        static_cast<double>(queue_.size()));
    return future;
}

Expected<std::future<Expected<CharacterizeResponse>>>
UvoltServer::submitCharacterize(CharacterizeRequest request)
{
    if (request.runsPerLevel <= 0) {
        return makeError(Errc::invalidRequest,
                         "characterize: runsPerLevel {} is not positive",
                         request.runsPerLevel);
    }
    if (!mem::knownDevice(request.platform)) {
        return makeError(Errc::invalidRequest,
                         "characterize: unknown device '{}'",
                         request.platform);
    }
    if (!request.pattern.wellFormed()) {
        return makeError(Errc::invalidRequest,
                         "characterize: pattern density {} is not in "
                         "[0, 1]",
                         request.pattern.oneDensity);
    }
    return admit<CharacterizeRequest, CharacterizeResponse>(
        std::move(request));
}

Expected<std::future<Expected<ClassifyResponse>>>
UvoltServer::submitClassify(ClassifyRequest request)
{
    if (request.sampleCount == 0 ||
        request.samples.size() % request.sampleCount != 0) {
        return makeError(Errc::invalidRequest,
                         "classify: {} sample values do not divide into "
                         "{} samples",
                         request.samples.size(), request.sampleCount);
    }
    if (!config_.modelProvider)
        return makeError(Errc::invalidRequest,
                         "classify: server has no model provider");
    return admit<ClassifyRequest, ClassifyResponse>(std::move(request));
}

void
UvoltServer::drain()
{
    accepting_.store(false, std::memory_order_relaxed);
    std::unique_lock lock(drainMutex_);
    drainCv_.wait(lock, [this] {
        return unresponded_.load(std::memory_order_acquire) == 0;
    });
}

void
UvoltServer::settled()
{
    if (unresponded_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::unique_lock lock(drainMutex_);
        drainCv_.notify_all();
    }
}

void
UvoltServer::stop(StopMode mode)
{
    std::unique_lock stop_lock(stopMutex_);
    if (joined_.load(std::memory_order_relaxed))
        return;
    accepting_.store(false, std::memory_order_relaxed);
    if (mode == StopMode::drain)
        drain();
    else
        stopNow_.store(true, std::memory_order_relaxed);
    // Workers drain what is left: with stopNow_ set, every remaining
    // item is answered serverStopped (checkpoints stay on disk for the
    // next server); in drain mode the queue is already empty.
    queue_.close();
    for (auto &worker : workers_)
        worker.join();
    joined_.store(true, std::memory_order_relaxed);
}

ServerStats
UvoltServer::stats() const
{
    std::unique_lock lock(statsMutex_);
    return stats_;
}

void
UvoltServer::observeFaultPressure(double pressure)
{
    ServeState before;
    ServeState after;
    int raise = 0;
    {
        std::unique_lock lock(healthMutex_);
        before = health_.state();
        health_.observe(pressure);
        after = health_.state();
        raise = health_.floorRaiseMv();
    }
    if (after == before)
        return;
    // Record and dump outside healthMutex_: the black box takes the log
    // lock and a dump writes a file — no reader of healthState() /
    // statusReport() should ever wait behind that.
    note(after == ServeState::degraded ? LogLevel::error : LogLevel::info,
         "serve",
         strFormat("health {} -> {} (floor raise {} mV)",
                   serveStateName(before), serveStateName(after), raise));
    if (after == ServeState::degraded && !config_.blackboxDir.empty()) {
        const std::string path =
            blackbox::dump("degraded", config_.blackboxDir);
        if (!path.empty()) {
            warnc("serve",
                  "entered degraded state: flight recorder dumped to {}",
                  path);
        }
    }
}

ServeState
UvoltServer::healthState() const
{
    std::unique_lock lock(healthMutex_);
    return health_.state();
}

int
UvoltServer::floorRaiseMv() const
{
    std::unique_lock lock(healthMutex_);
    return health_.floorRaiseMv();
}

std::vector<HealthTransition>
UvoltServer::healthTransitions() const
{
    std::unique_lock lock(healthMutex_);
    return health_.transitions();
}

StatusReport
UvoltServer::statusReport() const
{
    StatusReport report;
    {
        std::unique_lock lock(healthMutex_);
        report.state = health_.state();
        report.floorRaiseMv = health_.floorRaiseMv();
    }
    report.queueDepth = queue_.size();
    report.queueCapacity = config_.queueCapacity;
    {
        std::unique_lock lock(statsMutex_);
        report.stats = stats_;
    }
    if (telemetry::Telemetry::enabled()) {
        const telemetry::MetricsSnapshot snapshot =
            telemetry::Registry::global().metrics();
        for (const auto &histogram : snapshot.histograms) {
            if (histogram.name == "serve.queue_wait_ms") {
                report.queueWaitP50Ms = histogram.p50();
                report.queueWaitP99Ms = histogram.p99();
            } else if (histogram.name == "serve.e2e_ms") {
                report.e2eP50Ms = histogram.p50();
                report.e2eP99Ms = histogram.p99();
            } else if (histogram.name == "serve.characterize_ms") {
                report.characterizeP50Ms = histogram.p50();
                report.characterizeP99Ms = histogram.p99();
            } else if (histogram.name == "serve.classify_ms") {
                report.classifyP50Ms = histogram.p50();
                report.classifyP99Ms = histogram.p99();
            }
        }
    }
    const std::uint64_t responded =
        report.stats.completed + report.stats.failed;
    if (responded > 0) {
        report.errorBudgetBurn = (static_cast<double>(report.stats.failed) /
                                  static_cast<double>(responded)) /
                                 failureBudget;
    }
    // Where wall time went: the exact self time of every span recorded
    // so far. Folding only reads the copied span list, so it never
    // perturbs request handling.
    if (telemetry::Telemetry::enabled()) {
        const harness::Profile profile =
            harness::foldSpans(telemetry::Registry::global().traceEvents());
        report.profileNs = profile.totalNs();
        report.hotFrames = profile.topFrames(5);
    }
    return report;
}

std::string
StatusReport::render() const
{
    std::string out;
    out += strFormat("state           {} (floor raise {} mV)\n",
                     serveStateName(state), floorRaiseMv);
    out += strFormat("queue           {}/{}\n", queueDepth,
                     queueCapacity);
    out += strFormat("admitted        {}  completed {}  failed {}\n",
                     stats.admitted, stats.completed, stats.failed);
    out += strFormat("refused         rejected {}  shed {}  "
                     "cancelled {}\n",
                     stats.rejected, stats.shed, stats.cancelled);
    out += strFormat("pressure        deadline misses {}  retries {}  "
                     "coalesced blocks {}\n",
                     stats.deadlineExceeded, stats.retried,
                     stats.coalescedBlocks);
    out += strFormat("queue wait      p50 {:.3f} ms  p99 {:.3f} ms\n",
                     queueWaitP50Ms, queueWaitP99Ms);
    out += strFormat("end-to-end      p50 {:.3f} ms  p99 {:.3f} ms\n",
                     e2eP50Ms, e2eP99Ms);
    out += strFormat("  characterize  p50 {:.3f} ms  p99 {:.3f} ms\n",
                     characterizeP50Ms, characterizeP99Ms);
    out += strFormat("  classify      p50 {:.3f} ms  p99 {:.3f} ms\n",
                     classifyP50Ms, classifyP99Ms);
    out += strFormat("error budget    {:.1f}% burned\n",
                     errorBudgetBurn * 100.0);
    if (!hotFrames.empty()) {
        out += strFormat("hot frames      ({:.1f} ms in root spans; "
                         "self / total)\n",
                         static_cast<double>(profileNs) / 1e6);
        const double denom =
            profileNs ? static_cast<double>(profileNs) : 1.0;
        for (const auto &frame : hotFrames) {
            std::string name = frame.name;
            if (name.size() < 24)
                name.append(24 - name.size(), ' ');
            out += strFormat(
                "  {} {:.3f} ms / {:.3f} ms  ({:.1f}% / {:.1f}%)\n", name,
                static_cast<double>(frame.self) / 1e6,
                static_cast<double>(frame.total) / 1e6,
                100.0 * static_cast<double>(frame.self) / denom,
                100.0 * static_cast<double>(frame.total) / denom);
        }
    }
    return out;
}

void
UvoltServer::workerLoop()
{
    while (auto item = queue_.pop()) {
        serveMetrics().queueDepth.set(
            static_cast<double>(queue_.size()));
        process(std::move(*item));
    }
}

void
UvoltServer::respondExpired(Pending &item)
{
    respondFailed(item, makeError(Errc::deadlineExceeded,
                                  "request {} exceeded its deadline",
                                  item.id));
}

void
UvoltServer::respondStopped(Pending &item)
{
    respondFailed(item, makeError(Errc::serverStopped,
                                  "request {} cancelled by server stop",
                                  item.id));
}

void
UvoltServer::respondFailed(Pending &item, Error error)
{
    const bool expired = error.code == Errc::deadlineExceeded;
    const bool stopped = error.code == Errc::serverStopped;
    {
        std::unique_lock lock(statsMutex_);
        ++stats_.failed;
        stats_.deadlineExceeded += expired ? 1 : 0;
        stats_.cancelled += stopped ? 1 : 0;
    }
    serveMetrics().failed.increment();
    if (expired)
        serveMetrics().deadlineExceeded.increment();
    if (stopped)
        serveMetrics().cancelled.increment();
    noteCompleted(item, false, error.code);
    std::visit(
        [&](auto &work) { work.promise.set_value(std::move(error)); },
        item.work);
    settled();
}

void
UvoltServer::noteCompleted(const Pending &item, bool ok, Errc code)
{
    const char *kind =
        std::holds_alternative<CharacterizeWork>(item.work)
            ? "characterize"
            : "classify";
    const double e2e = elapsedMs(item.submitted);
    observeE2e(kind, e2e);
    recordRequestSpan(kind, item.id, item.trace, e2e, ok);
    if (ok) {
        // Any completion ends a deadline storm: expiries only count
        // toward the dump threshold while nothing gets through.
        deadlineStreak_.store(0, std::memory_order_relaxed);
        return;
    }
    note(LogLevel::warn, "serve",
         strFormat("{} request {} failed: {}", kind, item.id,
                   errcName(code)),
         item.trace.flowId);
    if (code == Errc::deadlineExceeded)
        noteDeadlineExpiry();
}

void
UvoltServer::noteDeadlineExpiry()
{
    const int streak =
        deadlineStreak_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (streak < deadlineStormExpiries)
        return;
    deadlineStreak_.store(0, std::memory_order_relaxed);
    if (config_.blackboxDir.empty())
        return;
    note(LogLevel::error, "serve",
         strFormat("{} consecutive deadline expiries", streak));
    const std::string path =
        blackbox::dump("deadline_storm", config_.blackboxDir);
    if (!path.empty()) {
        warnc("serve", "deadline storm ({} expiries): flight recorder "
              "dumped to {}",
              streak, path);
    }
}

void
UvoltServer::process(Pending item)
{
    serveMetrics().queueWaitMs.observe(elapsedMs(item.submitted));
    // The queue-wait hop of the request flow: starts at admission time
    // on the submitter's thread, ends now on this worker — in Perfetto
    // the flow arrow crosses threads through this slice.
    if (item.trace.active()) {
        const std::uint64_t now = telemetry::nowNs();
        telemetry::recordFlowSpan(
            "serve.queue_wait", item.submitNs,
            now > item.submitNs ? now - item.submitNs : 0, item.trace,
            telemetry::FlowPoint::step,
            {{"id", std::to_string(item.id)}});
    }
    // Everything this worker does for the request — sweep slices,
    // retries, checkpoint writes — parents under the request context.
    telemetry::ContextScope trace_scope(item.trace);
    if (stopRequested()) {
        respondStopped(item);
        return;
    }
    if (Clock::now() > item.deadline) {
        respondExpired(item);
        return;
    }
    if (std::holds_alternative<CharacterizeWork>(item.work)) {
        finishCharacterize(item);
        return;
    }

    // Coalesce: drain further classify requests for the same operating
    // point off the queue head until one block is full. FIFO order is
    // preserved — only the head is ever considered.
    const auto &request = std::get<ClassifyWork>(item.work).request;
    const int setpoint = request.setpointMv;
    const std::size_t width = static_cast<std::size_t>(nn::evalBatch);
    std::vector<Pending> group;
    std::size_t samples = request.sampleCount;
    group.push_back(std::move(item));
    while (samples < width && !stopRequested()) {
        auto more = queue_.tryPopMatching([&](const Pending &next) {
            const auto *work = std::get_if<ClassifyWork>(&next.work);
            return work && work->request.setpointMv == setpoint;
        });
        if (!more)
            break;
        samples += std::get<ClassifyWork>(more->work).request.sampleCount;
        serveMetrics().queueWaitMs.observe(elapsedMs(more->submitted));
        if (more->trace.active()) {
            const std::uint64_t now = telemetry::nowNs();
            telemetry::recordFlowSpan(
                "serve.queue_wait", more->submitNs,
                now > more->submitNs ? now - more->submitNs : 0,
                more->trace, telemetry::FlowPoint::step,
                {{"id", std::to_string(more->id)},
                 {"coalesced", "1"}});
        }
        group.push_back(std::move(*more));
    }
    serveMetrics().queueDepth.set(static_cast<double>(queue_.size()));
    finishClassifyGroup(std::move(group));
}

void
UvoltServer::finishCharacterize(Pending &item)
{
    auto &work = std::get<CharacterizeWork>(item.work);
    const CharacterizeRequest &request = work.request;
    const std::uint64_t request_seed = combineSeeds(
        config_.seed,
        hashSeed(harness::configDigest(canonicalCharacterize(request))));

    // Serialize identical request shapes: they share a checkpoint file
    // (that is what makes restart resume work), so two tenants asking
    // for the same die+shape take turns instead of racing the file.
    std::shared_ptr<std::mutex> label_lock;
    {
        const std::string canonical = canonicalCharacterize(request);
        std::unique_lock lock(labelsMutex_);
        auto &slot = labelLocks_[canonical];
        if (!slot)
            slot = std::make_shared<std::mutex>();
        label_lock = slot;
    }
    std::unique_lock serialized(*label_lock);

    // The request as a one-job plan for the shared per-attempt runner.
    // The injector stream is a pure function of the request's content
    // digest (re-seeded per attempt by the runner), so a retry — or a
    // resubmission after a restart — faces a reproducible environment.
    harness::FleetPlan plan;
    plan.runsPerLevel = request.runsPerLevel;
    harness::FleetJob job{request.platform, request.pattern,
                          request.ambientC, std::nullopt};
    std::string ckpt_path;
    if (!config_.checkpointDir.empty())
        ckpt_path = strFormat("{}/{}-r{}.ckpt", config_.checkpointDir,
                              job.label(), request.runsPerLevel);
    if (config_.noise) {
        job.noise = *config_.noise;
        job.noise->seed = request_seed;
    }
    // Cooperative cancellation points: a cancelled BRAM campaign leaves
    // its checkpoint flushed, so the same request shape resumes later.
    const harness::SliceCheck at_slice = [&]() -> Expected<void> {
        if (stopRequested())
            return makeError(Errc::serverStopped,
                             "characterize cancelled at slice boundary");
        if (Clock::now() > item.deadline)
            return makeError(Errc::deadlineExceeded,
                             "characterize deadline passed at slice "
                             "boundary");
        return {};
    };

    Error last = makeError(Errc::recoveryExhausted,
                           "characterize {} never ran", item.id);
    for (int attempt = 1; attempt <= attemptsPerRequest; ++attempt) {
        if (stopRequested()) {
            respondStopped(item);
            return;
        }
        UVOLT_TRACE_SCOPE("serve.attempt", [&] {
            return telemetry::TraceArgs{
                {"id", std::to_string(item.id)},
                {"attempt", std::to_string(attempt)}};
        });
        auto result =
            harness::runJobAttempt(plan, job, attempt, request_seed,
                                   ckpt_path, levelsPerSlice, at_slice);
        if (result.ok()) {
            harness::FleetJobOutcome outcome = result.take();
            CharacterizeResponse response;
            response.sweep = std::move(outcome.sweep);
            response.attempts = attempt;
            response.resumed = outcome.resumed;
            if (response.resumed)
                serveMetrics().resumes.increment();

            if (config_.fvmCache) {
                // Backend-generic publication: the traits carry the
                // domain grid for any technology, and keyForDevice
                // emits the legacy untagged key for BRAM so existing
                // cache entries stay addressable.
                const mem::DeviceTraits traits =
                    mem::traitsOfName(request.platform);
                const fpga::Floorplan floorplan =
                    fpga::Floorplan::columnGrid(traits.domainCount,
                                                traits.columnHeight);
                if (auto stored = config_.fvmCache->storeKeyed(
                        harness::FvmCache::keyForDevice(
                            traits, request.pattern,
                            request.runsPerLevel),
                        floorplan,
                        harness::fvmFromSweep(response.sweep,
                                              floorplan));
                    !stored.ok()) {
                    warnc("serve", "FVM publication failed: {}",
                         stored.error().message);
                }
            }

            const auto &res = response.sweep.resilience;
            const double pressure = static_cast<double>(
                res.crashRecoveries + res.runsRetried +
                res.linkRetransmits + res.pmbusRetries +
                static_cast<std::uint64_t>(attempt - 1));
            observeFaultPressure(pressure);

            {
                std::unique_lock lock(statsMutex_);
                ++stats_.completed;
            }
            serveMetrics().completed.increment();
            noteCompleted(item, true, Errc::ok);
            work.promise.set_value(std::move(response));
            settled();
            return;
        }

        last = result.error();
        if (last.code == Errc::deadlineExceeded) {
            observeFaultPressure(static_cast<double>(attempt));
            respondExpired(item);
            return;
        }
        if (last.code == Errc::serverStopped) {
            respondStopped(item);
            return;
        }
        if (!transientErrc(last.code) || attempt == attemptsPerRequest)
            break;
        {
            std::unique_lock lock(statsMutex_);
            ++stats_.retried;
        }
        serveMetrics().retried.increment();
        note(LogLevel::info, "serve",
             strFormat("characterize {} attempt {} hit {}; backing off",
                       item.id, attempt, errcName(last.code)),
             item.trace.flowId);
        if (!backoff(attempt, request_seed)) {
            respondStopped(item);
            return;
        }
    }

    observeFaultPressure(static_cast<double>(attemptsPerRequest));
    respondFailed(item, std::move(last));
}

Expected<std::shared_ptr<const nn::Network>>
UvoltServer::obtainModel(int setpoint_mv, std::uint64_t request_seed,
                         int &attempts)
{
    Error last = makeError(Errc::recoveryExhausted,
                           "model provider never ran");
    for (attempts = 1; attempts <= attemptsPerRequest; ++attempts) {
        auto model = config_.modelProvider(setpoint_mv);
        if (model.ok())
            return model;
        last = model.error();
        if (!transientErrc(last.code) || attempts == attemptsPerRequest)
            return last;
        {
            std::unique_lock lock(statsMutex_);
            ++stats_.retried;
        }
        serveMetrics().retried.increment();
        if (!backoff(attempts, request_seed)) {
            return makeError(Errc::serverStopped,
                             "server stopped during model retry");
        }
    }
    return last;
}

void
UvoltServer::finishClassifyGroup(std::vector<Pending> items)
{
    // The group's inference, a flow step of the head request (this
    // runs under its ContextScope), as serve.attempt is for
    // characterize.
    UVOLT_TRACE_SCOPE("serve.classify", [&] {
        std::size_t samples = 0;
        for (const auto &pending : items)
            samples +=
                std::get<ClassifyWork>(pending.work).request.sampleCount;
        return telemetry::TraceArgs{
            {"requests", std::to_string(items.size())},
            {"samples", std::to_string(samples)}};
    });
    struct Member
    {
        Pending item;
        std::size_t features = 0;
        std::size_t count = 0;
        std::size_t done = 0;
        std::vector<int> classes;
        bool finished = false; ///< responded (expired/stopped)
    };
    std::vector<Member> members;
    members.reserve(items.size());
    for (auto &pending : items) {
        Member member;
        const auto &request =
            std::get<ClassifyWork>(pending.work).request;
        member.count = request.sampleCount;
        member.features = request.samples.size() / request.sampleCount;
        member.classes.resize(member.count, -1);
        member.item = std::move(pending);
        members.push_back(std::move(member));
    }
    const int requested_setpoint =
        std::get<ClassifyWork>(members.front().item.work)
            .request.setpointMv;

    // Degradation raises the operating point toward the safe region;
    // the whole group shares one effective setpoint (same requested
    // point — that is what made them coalescible).
    const int effective_setpoint = requested_setpoint + floorRaiseMv();

    int model_attempts = 1;
    auto model =
        obtainModel(effective_setpoint,
                    combineSeeds(config_.seed, members.front().item.id),
                    model_attempts);
    if (!model.ok()) {
        for (auto &member : members)
            respondFailed(member.item, model.error());
        observeFaultPressure(static_cast<double>(model_attempts));
        return;
    }
    const std::shared_ptr<const nn::Network> &net = model.value();

    // A row width the model does not take is the client's error, not
    // fault pressure: answer that member and serve the rest.
    const std::size_t inputs =
        static_cast<std::size_t>(net->layerSizes().front());
    std::size_t served = 0;
    for (auto &member : members) {
        if (member.features == inputs) {
            ++served;
            continue;
        }
        respondFailed(member.item,
                      makeError(Errc::invalidRequest,
                                "classify: rows of {} features for a "
                                "model of {} inputs",
                                member.features, inputs));
        member.finished = true;
    }
    const bool group_coalesced = served > 1;
    const std::size_t width = static_cast<std::size_t>(nn::evalBatch);

    // Run block by block, checking stop and per-member deadlines at
    // every block boundary (the batch-block cancellation granularity).
    for (;;) {
        if (stopRequested()) {
            for (auto &member : members) {
                if (!member.finished && member.done < member.count) {
                    respondStopped(member.item);
                    member.finished = true;
                }
            }
            break;
        }
        const auto now = Clock::now();
        for (auto &member : members) {
            if (!member.finished && member.done < member.count &&
                now > member.item.deadline) {
                respondExpired(member.item);
                member.finished = true;
            }
        }

        std::vector<std::span<const float>> block;
        std::vector<std::pair<std::size_t, std::size_t>> slots;
        block.reserve(width);
        slots.reserve(width);
        std::size_t members_in_block = 0;
        for (std::size_t m = 0;
             m < members.size() && block.size() < width; ++m) {
            Member &member = members[m];
            if (member.finished || member.done >= member.count)
                continue;
            ++members_in_block;
            const auto &request =
                std::get<ClassifyWork>(member.item.work).request;
            std::size_t take = std::min(
                member.count - member.done, width - block.size());
            for (std::size_t j = 0; j < take; ++j) {
                const std::size_t sample = member.done + j;
                block.emplace_back(
                    request.samples.data() + sample * member.features,
                    member.features);
                slots.emplace_back(m, sample);
            }
        }
        if (block.empty())
            break;

        std::vector<int> classes(block.size(), -1);
        net->classifyScattered(block, classes);
        for (std::size_t i = 0; i < slots.size(); ++i) {
            Member &member = members[slots[i].first];
            member.classes[slots[i].second] = classes[i];
            ++member.done;
        }
        if (members_in_block > 1) {
            {
                std::unique_lock lock(statsMutex_);
                ++stats_.coalescedBlocks;
            }
            serveMetrics().coalescedBlocks.increment();
        }
    }

    for (auto &member : members) {
        if (member.finished)
            continue;
        ClassifyResponse response;
        response.classes = std::move(member.classes);
        response.effectiveSetpointMv = effective_setpoint;
        response.attempts = model_attempts;
        response.coalesced = group_coalesced;
        {
            std::unique_lock lock(statsMutex_);
            ++stats_.completed;
        }
        serveMetrics().completed.increment();
        noteCompleted(member.item, true, Errc::ok);
        observeFaultPressure(
            static_cast<double>(model_attempts - 1));
        std::get<ClassifyWork>(member.item.work)
            .promise.set_value(std::move(response));
        settled();
    }
}

bool
UvoltServer::backoff(int attempt, std::uint64_t request_seed)
{
    const double exponential = backoffFirstMs * std::ldexp(1.0, attempt - 1);
    Rng rng(combineSeeds(request_seed,
                         0xb0ffull + static_cast<std::uint64_t>(
                                         attempt)));
    const double jitter = rng.uniform(0.0, backoffJitterSpanMs);
    const double delay_ms = std::min(backoffCapMs, exponential) + jitter;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
    return !stopRequested();
}

} // namespace uvolt::serve
