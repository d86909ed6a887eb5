/**
 * @file
 * Process-wide telemetry: a metrics registry and scoped trace spans.
 *
 * The evaluation is a long cross product of sweeps whose interesting
 * behavior — exponential fault-rate growth near Vcrash, retry storms on
 * noisy PMBus links, die-to-die variation — is invisible in the final
 * CSVs. This layer makes it observable without touching the physics:
 *
 *  - Metrics. Counters, gauges, and fixed-bucket histograms registered
 *    by name in a process-wide Registry. Counter/histogram updates land
 *    in lock-free per-thread shards (each thread owns its slots; writes
 *    are relaxed atomics so a snapshot from another thread is racefree)
 *    and are merged only when metrics() is called. Nothing here draws
 *    from any RNG stream or reorders work, so FleetEngine's
 *    bit-identical determinism contract is untouched.
 *
 *  - Traces. UVOLT_TRACE_SCOPE("fleet.job", ...) records a wall-clock
 *    span on the current thread; spans close in LIFO order, so the
 *    per-thread stream is well-nested by construction. The collected
 *    events export as Chrome trace-event JSON (harness/report.hh) and
 *    load directly in Perfetto / chrome://tracing; harness::foldSpans
 *    folds the same events into an exact self-time profile. A thread
 *    whose buffer is full drops further spans and counts each drop in
 *    the always-registered counter "telemetry.trace.dropped".
 *
 * Cost model: everything is gated on Telemetry::enabled(), a single
 * relaxed atomic load, so an instrumented hot path pays one predictable
 * branch when telemetry is off. bench_all's
 * BM_SweepInnerLoopTelemetryOff/On time the sweep inner loop with
 * recording off and on (results/ext_telemetry.csv).
 *
 * Runtime enablement: off by default; on when the UVOLT_TELEMETRY
 * environment variable is ON/1/true at startup, or programmatically via
 * Telemetry::setEnabled().
 */

#ifndef UVOLT_UTIL_TELEMETRY_HH
#define UVOLT_UTIL_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace uvolt::telemetry
{

/** Key/value annotations attached to a trace span. */
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

/**
 * How a span participates in a cross-thread request flow. The exporter
 * turns these into Chrome flow events (ph:"s"/"t"/"f") bound to the
 * span, which is what draws the connecting arrows in Perfetto.
 */
enum class FlowPoint : std::uint8_t
{
    none = 0, ///< plain span, no flow binding
    start,    ///< first span of a flow (one per flow id)
    step,     ///< intermediate hop (queue wait, worker segment, retry)
    finish,   ///< terminal span of a flow (one per flow id)
};

/**
 * Request-scoped linkage handed across threads. Minted where a request
 * enters the system (UvoltServer admission, FleetEngine submit) and
 * carried explicitly through queues; a worker installs it with
 * ContextScope so every span it opens joins the request's flow and
 * parents under the span that enqueued the work.
 */
struct TraceContext
{
    std::uint64_t flowId = 0; ///< request/flow id; 0 = not in a flow
    std::uint64_t spanId = 0; ///< span to parent under; 0 = root

    bool active() const { return flowId != 0; }
};

/** One completed span ("X" event in the Chrome trace format). */
struct TraceEvent
{
    const char *name = "";   ///< static string (macro call sites)
    std::uint64_t startNs = 0; ///< since the registry's epoch
    std::uint64_t durNs = 0;
    std::uint32_t tid = 0;   ///< registry-assigned thread id
    std::uint64_t spanId = 0;   ///< unique per span; 0 = unlinked
    std::uint64_t parentId = 0; ///< enclosing/enqueuing span; 0 = root
    std::uint64_t flowId = 0;   ///< request flow membership; 0 = none
    FlowPoint flowPoint = FlowPoint::none;
    /** Recorded by a TraceScope: time the recording thread spent
     *  inside the span. Explicit-interval spans (queue waits, request
     *  envelopes, zero-width markers) leave it false. */
    bool scoped = false;
    TraceArgs args;
};

/** Merged view of one histogram at snapshot time. */
struct HistogramSnapshot
{
    std::string name;
    std::vector<double> bounds;         ///< upper bucket bounds, ascending
    std::vector<std::uint64_t> buckets; ///< bounds.size() + 1 (overflow)
    std::uint64_t count = 0;
    double sum = 0.0;

    double mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }

    /**
     * Quantile estimate with linear interpolation inside the bucket the
     * rank falls in (the Prometheus histogram_quantile method). The
     * first bucket interpolates from 0 (observations are durations and
     * counts here, never negative); a rank landing in the overflow
     * bucket clamps to the last finite bound — the snapshot cannot know
     * how far beyond it the tail reaches. 0 when the histogram is
     * empty.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }
};

/** Point-in-time merge of every registered metric across all shards. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;

    /** Counter by name; 0 when never registered. */
    std::uint64_t counter(std::string_view name) const;
};

namespace detail
{

/** The global on/off switch (relaxed loads on every hot path). */
extern std::atomic<bool> enabledFlag;

/** Linkage computed when a scoped span opens. */
struct SpanLink
{
    std::uint64_t spanId = 0;
    std::uint64_t parentId = 0;
    std::uint64_t flowId = 0;
    FlowPoint flowPoint = FlowPoint::none;
    bool scoped = false; ///< opened by a TraceScope
};

/**
 * Open/close the calling thread's span stack. A span parents under the
 * innermost open span; the outermost span of a thread segment parents
 * under the installed TraceContext and becomes a flow step, which is
 * how a request's track reconnects after crossing a queue.
 */
SpanLink openSpanLink();
void closeSpanLink();

} // namespace detail

/** The runtime switch. */
class Telemetry
{
  public:
    /** Whether recording is on: one relaxed atomic load. */
    static bool
    enabled()
    {
        return detail::enabledFlag.load(std::memory_order_relaxed);
    }

    static void
    setEnabled(bool on)
    {
        detail::enabledFlag.store(on, std::memory_order_relaxed);
    }
};

class Registry;

/** Monotonic counter handle; cheap to copy, stable for process life. */
class Counter
{
  public:
    void add(std::uint64_t n = 1);
    void increment() { add(1); }

  private:
    friend class Registry;
    explicit Counter(std::size_t id) : id_(id) {}
    std::size_t id_;
};

/** Last-write-wins scalar (not sharded; sets are rare). */
class Gauge
{
  public:
    void set(double value);

  private:
    friend class Registry;
    explicit Gauge(std::size_t id) : id_(id) {}
    std::size_t id_;
};

/** Fixed-bucket histogram handle (bounds frozen at registration). */
class Histogram
{
  public:
    void observe(double value);

  private:
    friend class Registry;
    Histogram(std::size_t id, std::vector<double> bounds)
        : id_(id), bounds_(std::move(bounds))
    {
    }
    std::size_t id_;
    std::vector<double> bounds_;
};

/**
 * The process-wide registry. Registration (counter()/gauge()/
 * histogram()) takes a mutex and deduplicates by name — call sites
 * cache the returned reference in a static, so it runs once per site.
 * Updates through the handles are lock-free per-thread shard writes.
 */
class Registry
{
  public:
    static Registry &global();

    /** Register (or look up) a counter; the reference never moves. */
    Counter &counter(std::string_view name);

    /** Register (or look up) a gauge. */
    Gauge &gauge(std::string_view name);

    /**
     * Register (or look up) a histogram with the given ascending upper
     * bucket bounds (at most 24; one overflow bucket is implicit).
     * Bounds are fully caller-chosen at registration — latency ladders
     * must reach past their workload's tail or quantile() saturates at
     * the last finite bound. Re-registering an existing name ignores
     * @a bounds: the first registration wins.
     */
    Histogram &histogram(std::string_view name,
                         const std::vector<double> &bounds);

    /** Merge every per-thread shard into one snapshot. */
    MetricsSnapshot metrics() const;

    /** Every recorded span, merged across threads, start-time order. */
    std::vector<TraceEvent> traceEvents() const;

    /**
     * Name the calling thread for trace exports ("fleet-worker-3"
     * instead of a bare tid in Perfetto). Independent of the enabled
     * flag — a name set while recording is off still labels spans
     * recorded after it is switched on.
     */
    void setThreadName(std::string name);

    /**
     * (tid, name) for every named lane, tid order. A tid is a lane that
     * sequential threads can share: a new thread adopts the shard of
     * one that exited, and the latest setThreadName() labels the lane.
     */
    std::vector<std::pair<std::uint32_t, std::string>>
    threadNames() const;

    /** Nanoseconds since the registry's epoch (trace timebase). */
    std::uint64_t nowNs() const;

    /**
     * Record a span with an explicit start (queue-wait spans measure an
     * interval that began on another thread). No-op when disabled.
     */
    void recordSpan(const char *name, std::uint64_t start_ns,
                    std::uint64_t dur_ns, TraceArgs args = {});

    /**
     * Mint a process-unique flow id (never 0). One flow = one request's
     * journey across threads; every minting site shares this pool so
     * serve and fleet flows can never collide in one trace.
     */
    std::uint64_t mintFlowId();

    /**
     * Record a span explicitly bound to a flow: it parents under
     * @a ctx.spanId and emits a flow point at its start time. Returns
     * the new span's id (0 when disabled) so the caller can hand it to
     * the next hop as the parent.
     */
    std::uint64_t recordFlowSpan(const char *name, std::uint64_t start_ns,
                                 std::uint64_t dur_ns,
                                 const TraceContext &ctx, FlowPoint point,
                                 TraceArgs args = {});

    /** Record a span with precomputed linkage (TraceScope's dtor). */
    void recordLinkedSpan(const char *name, std::uint64_t start_ns,
                          std::uint64_t dur_ns,
                          const detail::SpanLink &link,
                          TraceArgs args = {});

    /** The calling thread's installed request context ({} if none). */
    static TraceContext currentContext();

    /** Install @a ctx on the calling thread; returns the previous one. */
    static TraceContext setCurrentContext(const TraceContext &ctx);

    /**
     * Zero every metric value and drop every recorded span, keeping all
     * registrations (call-site handle caches stay valid). Tests only.
     */
    void resetForTest();

  private:
    friend class Counter;
    friend class Gauge;
    friend class Histogram;

    Registry();
    struct Impl;
    Impl *impl_; ///< leaked intentionally: usable during static dtors
};

/**
 * RAII span: records [construction, destruction) on the current thread
 * under the given (static-lifetime) name. The args callable runs only
 * when telemetry is enabled, so annotation formatting is free when off.
 */
class TraceScope
{
  public:
    explicit TraceScope(const char *name) : name_(name)
    {
        active_ = Telemetry::enabled();
        if (active_) {
            link_ = detail::openSpanLink();
            startNs_ = Registry::global().nowNs();
        }
    }

    template <typename ArgsFn>
    TraceScope(const char *name, ArgsFn &&make_args) : name_(name)
    {
        active_ = Telemetry::enabled();
        if (active_) {
            args_ = make_args();
            link_ = detail::openSpanLink();
            startNs_ = Registry::global().nowNs();
        }
    }

    ~TraceScope()
    {
        if (!active_)
            return;
        detail::closeSpanLink();
        Registry &registry = Registry::global();
        registry.recordLinkedSpan(name_, startNs_,
                                  registry.nowNs() - startNs_, link_,
                                  std::move(args_));
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    const char *name_;
    std::uint64_t startNs_ = 0;
    TraceArgs args_;
    detail::SpanLink link_;
    bool active_;
};

/**
 * RAII installation of a request context on the current thread. Opened
 * by a worker right after it dequeues an item; every TraceScope under
 * it joins the request's flow, and spans recorded on other threads in
 * between are reconnected by the exporter's flow arrows.
 */
class ContextScope
{
  public:
    explicit ContextScope(const TraceContext &ctx)
        : previous_(Registry::setCurrentContext(ctx))
    {
    }

    ~ContextScope() { Registry::setCurrentContext(previous_); }

    ContextScope(const ContextScope &) = delete;
    ContextScope &operator=(const ContextScope &) = delete;

  private:
    TraceContext previous_;
};

#define UVOLT_TELEMETRY_CAT2(a, b) a##b
#define UVOLT_TELEMETRY_CAT(a, b) UVOLT_TELEMETRY_CAT2(a, b)

/**
 * Open a span for the rest of the enclosing block:
 *
 *     UVOLT_TRACE_SCOPE("fleet.job");
 *     UVOLT_TRACE_SCOPE("fleet.job", [&] {
 *         return telemetry::TraceArgs{{"label", job.label()}};
 *     });
 */
#define UVOLT_TRACE_SCOPE(...)                                          \
    ::uvolt::telemetry::TraceScope UVOLT_TELEMETRY_CAT(                 \
        uvoltTraceScope_, __LINE__) { __VA_ARGS__ }


/** Shorthand for Registry::global().nowNs(). */
inline std::uint64_t
nowNs()
{
    return Registry::global().nowNs();
}

/** Shorthand for Registry::global().recordSpan(...). */
inline void
recordSpan(const char *name, std::uint64_t start_ns, std::uint64_t dur_ns,
           TraceArgs args = {})
{
    Registry::global().recordSpan(name, start_ns, dur_ns,
                                  std::move(args));
}

/** Shorthand for Registry::global().setThreadName(...). */
inline void
setCurrentThreadName(std::string name)
{
    Registry::global().setThreadName(std::move(name));
}

/** Shorthand for Registry::global().mintFlowId(). */
inline std::uint64_t
mintFlowId()
{
    return Registry::global().mintFlowId();
}

/** Shorthand for Registry::global().recordFlowSpan(...). */
inline std::uint64_t
recordFlowSpan(const char *name, std::uint64_t start_ns,
               std::uint64_t dur_ns, const TraceContext &ctx,
               FlowPoint point, TraceArgs args = {})
{
    return Registry::global().recordFlowSpan(name, start_ns, dur_ns, ctx,
                                             point, std::move(args));
}

/** Shorthand for Registry::currentContext(). */
inline TraceContext
currentContext()
{
    return Registry::currentContext();
}

} // namespace uvolt::telemetry

#endif // UVOLT_UTIL_TELEMETRY_HH
