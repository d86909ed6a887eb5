#include "util/telemetry.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "util/logging.hh"

namespace uvolt::telemetry
{

std::uint64_t
MetricsSnapshot::counter(std::string_view name) const
{
    for (const auto &[key, value] : counters) {
        if (key == name)
            return value;
    }
    return 0;
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0 || bounds.empty())
        return 0.0;
    // NaN-proof clamp, mirroring util::quantile().
    if (!(q > 0.0))
        q = 0.0;
    else if (q >= 1.0)
        q = 1.0;
    const double rank = q * static_cast<double>(count);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const std::uint64_t in_bucket = buckets[b];
        if (in_bucket == 0)
            continue; // skip empty buckets: q=0 must land on the low
                      // edge of the first bucket that holds samples
        if (static_cast<double>(cumulative + in_bucket) < rank) {
            cumulative += in_bucket;
            continue;
        }
        if (b >= bounds.size()) // overflow bucket: clamp to last bound
            return bounds.back();
        const double low = b == 0 ? 0.0 : bounds[b - 1];
        const double high = bounds[b];
        const double within =
            (rank - static_cast<double>(cumulative)) /
            static_cast<double>(in_bucket);
        return low + (high - low) * within;
    }
    return bounds.back();
}

namespace
{

/** Registration ceilings: descriptors are fixed arrays so per-thread
 *  shards never grow (growth would race with lock-free writers). */
constexpr std::size_t maxCounters = 256;
constexpr std::size_t maxGauges = 64;
constexpr std::size_t maxHistograms = 64;
constexpr std::size_t maxHistogramBounds = 24;
constexpr std::size_t histogramSlots = maxHistogramBounds + 1;

/** Per-thread trace buffer ceiling; drops are counted, not fatal. */
constexpr std::size_t maxTraceEventsPerThread = 1u << 20;

bool
envEnabled()
{
    const char *value = std::getenv("UVOLT_TELEMETRY");
    if (!value)
        return false;
    return std::strcmp(value, "1") == 0 || std::strcmp(value, "ON") == 0 ||
           std::strcmp(value, "on") == 0 ||
           std::strcmp(value, "true") == 0;
}

/** Lock-free add for a double accumulator (shared with snapshots). */
void
atomicAdd(std::atomic<double> &total, double value)
{
    double current = total.load(std::memory_order_relaxed);
    while (!total.compare_exchange_weak(current, current + value,
                                        std::memory_order_relaxed))
        ;
}

/**
 * One thread's shard: the thread is the only writer of every slot, so
 * writes are relaxed atomics (no RMW contention) and a concurrent
 * snapshot reading relaxed sees a consistent-enough merge without any
 * lock on the hot path.
 */
struct ThreadState
{
    std::uint32_t tid = 0;

    /** Perfetto label; guarded by the registry mutex, not the owner. */
    std::string name;

    std::array<std::atomic<std::uint64_t>, maxCounters> counters{};

    struct HistogramShard
    {
        std::array<std::atomic<std::uint64_t>, histogramSlots> buckets{};
        std::atomic<std::uint64_t> count{0};
        std::atomic<double> sum{0.0};
    };
    std::array<HistogramShard, maxHistograms> histograms{};

    /** Span buffer; the owning thread appends, snapshots copy. */
    std::mutex traceMutex;
    std::vector<TraceEvent> trace;
};

} // namespace

namespace
{

/**
 * Shared pool for span and flow ids, never 0. One atomic for the whole
 * process keeps ids unique across every minting site (serve admission,
 * fleet submit, scoped spans) so no two flows can alias in a trace.
 */
std::atomic<std::uint64_t> nextLinkId{1};

std::uint64_t
mintLinkId()
{
    return nextLinkId.fetch_add(1, std::memory_order_relaxed);
}

/** The calling thread's installed request context. */
thread_local TraceContext tlsContext;

/** Ids of the calling thread's open TraceScopes, innermost last. */
thread_local std::vector<std::uint64_t> tlsSpanStack;

} // namespace

namespace detail
{

std::atomic<bool> enabledFlag{envEnabled()};

} // namespace detail

struct Registry::Impl
{
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();

    mutable std::mutex mutex; ///< registrations + the shard list

    std::vector<std::string> counterNames;
    std::vector<std::unique_ptr<Counter>> counterHandles;

    std::vector<std::string> gaugeNames;
    std::vector<std::unique_ptr<Gauge>> gaugeHandles;
    std::array<std::atomic<std::uint64_t>, maxGauges> gaugeBits{};

    std::vector<std::string> histogramNames;
    std::vector<std::vector<double>> histogramBounds;
    std::vector<std::unique_ptr<Histogram>> histogramHandles;

    /**
     * Every shard ever made. An exiting thread hands its shard to
     * freeStates and the next new thread adopts it — counts, spans and
     * tid included — so shards number at most the peak of live threads
     * and a tid is a lane that sequential threads can share.
     */
    std::vector<std::unique_ptr<ThreadState>> states;
    std::vector<ThreadState *> freeStates;
    std::uint32_t nextTid = 0;

    /** Spans refused by a full per-thread buffer. */
    Counter *traceDropped = nullptr;

    ThreadState *
    adoptState()
    {
        std::lock_guard lock(mutex);
        if (!freeStates.empty()) {
            ThreadState *state = freeStates.back();
            freeStates.pop_back();
            return state;
        }
        states.push_back(std::make_unique<ThreadState>());
        states.back()->tid = nextTid++;
        return states.back().get();
    }

    ThreadState &
    threadState()
    {
        /** The calling thread's hold on its shard until it exits. */
        struct Lease
        {
            Impl *impl = nullptr;
            ThreadState *state = nullptr;

            Lease() = default;
            Lease(const Lease &) = delete;
            Lease &operator=(const Lease &) = delete;

            ~Lease()
            {
                if (!state)
                    return;
                std::lock_guard lock(impl->mutex);
                impl->freeStates.push_back(state);
            }
        };
        thread_local Lease lease;
        if (!lease.state) {
            lease.impl = this;
            lease.state = adoptState();
        }
        return *lease.state;
    }
};

Registry::Registry() : impl_(new Impl)
{
    // Registered up front so every snapshot reports it, 0 included.
    impl_->traceDropped = &counter("telemetry.trace.dropped");
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

namespace detail
{

SpanLink
openSpanLink()
{
    SpanLink link;
    link.spanId = mintLinkId();
    link.flowId = tlsContext.flowId;
    link.scoped = true;
    if (tlsSpanStack.empty()) {
        // Outermost span of this thread segment: parent under the
        // installed cross-thread context and mark the flow hop.
        link.parentId = tlsContext.spanId;
        link.flowPoint = link.flowId ? FlowPoint::step : FlowPoint::none;
    } else {
        link.parentId = tlsSpanStack.back();
        link.flowPoint = FlowPoint::none;
    }
    tlsSpanStack.push_back(link.spanId);
    return link;
}

void
closeSpanLink()
{
    if (!tlsSpanStack.empty())
        tlsSpanStack.pop_back();
}

} // namespace detail

Counter &
Registry::counter(std::string_view name)
{
    std::lock_guard lock(impl_->mutex);
    for (std::size_t i = 0; i < impl_->counterNames.size(); ++i) {
        if (impl_->counterNames[i] == name)
            return *impl_->counterHandles[i];
    }
    if (impl_->counterNames.size() >= maxCounters)
        fatal("telemetry: counter budget ({}) exhausted registering '{}'",
              maxCounters, std::string(name));
    impl_->counterNames.emplace_back(name);
    impl_->counterHandles.emplace_back(
        new Counter(impl_->counterNames.size() - 1));
    return *impl_->counterHandles.back();
}

Gauge &
Registry::gauge(std::string_view name)
{
    std::lock_guard lock(impl_->mutex);
    for (std::size_t i = 0; i < impl_->gaugeNames.size(); ++i) {
        if (impl_->gaugeNames[i] == name)
            return *impl_->gaugeHandles[i];
    }
    if (impl_->gaugeNames.size() >= maxGauges)
        fatal("telemetry: gauge budget ({}) exhausted registering '{}'",
              maxGauges, std::string(name));
    impl_->gaugeNames.emplace_back(name);
    impl_->gaugeHandles.emplace_back(
        new Gauge(impl_->gaugeNames.size() - 1));
    return *impl_->gaugeHandles.back();
}

Histogram &
Registry::histogram(std::string_view name,
                    const std::vector<double> &bounds)
{
    std::lock_guard lock(impl_->mutex);
    for (std::size_t i = 0; i < impl_->histogramNames.size(); ++i) {
        if (impl_->histogramNames[i] == name)
            return *impl_->histogramHandles[i];
    }
    if (impl_->histogramNames.size() >= maxHistograms)
        fatal("telemetry: histogram budget ({}) exhausted registering "
              "'{}'",
              maxHistograms, std::string(name));
    if (bounds.empty() || bounds.size() > maxHistogramBounds)
        fatal("telemetry: histogram '{}' needs 1..{} bucket bounds, got "
              "{}",
              std::string(name), maxHistogramBounds, bounds.size());
    if (!std::is_sorted(bounds.begin(), bounds.end()))
        fatal("telemetry: histogram '{}' bounds must ascend",
              std::string(name));
    impl_->histogramNames.emplace_back(name);
    impl_->histogramBounds.push_back(bounds);
    impl_->histogramHandles.emplace_back(
        new Histogram(impl_->histogramNames.size() - 1, bounds));
    return *impl_->histogramHandles.back();
}

MetricsSnapshot
Registry::metrics() const
{
    MetricsSnapshot snapshot;
    std::lock_guard lock(impl_->mutex);

    snapshot.counters.reserve(impl_->counterNames.size());
    for (std::size_t i = 0; i < impl_->counterNames.size(); ++i) {
        std::uint64_t total = 0;
        for (const auto &state : impl_->states)
            total += state->counters[i].load(std::memory_order_relaxed);
        snapshot.counters.emplace_back(impl_->counterNames[i], total);
    }

    snapshot.gauges.reserve(impl_->gaugeNames.size());
    for (std::size_t i = 0; i < impl_->gaugeNames.size(); ++i) {
        const std::uint64_t bits =
            impl_->gaugeBits[i].load(std::memory_order_relaxed);
        double value;
        static_assert(sizeof(value) == sizeof(bits));
        std::memcpy(&value, &bits, sizeof(value));
        snapshot.gauges.emplace_back(impl_->gaugeNames[i], value);
    }

    snapshot.histograms.reserve(impl_->histogramNames.size());
    for (std::size_t i = 0; i < impl_->histogramNames.size(); ++i) {
        HistogramSnapshot merged;
        merged.name = impl_->histogramNames[i];
        merged.bounds = impl_->histogramBounds[i];
        merged.buckets.assign(merged.bounds.size() + 1, 0);
        for (const auto &state : impl_->states) {
            const auto &shard = state->histograms[i];
            for (std::size_t b = 0; b < merged.buckets.size(); ++b) {
                merged.buckets[b] +=
                    shard.buckets[b].load(std::memory_order_relaxed);
            }
            merged.count += shard.count.load(std::memory_order_relaxed);
            merged.sum += shard.sum.load(std::memory_order_relaxed);
        }
        snapshot.histograms.push_back(std::move(merged));
    }
    return snapshot;
}

std::vector<TraceEvent>
Registry::traceEvents() const
{
    std::vector<TraceEvent> events;
    {
        std::lock_guard lock(impl_->mutex);
        for (const auto &state : impl_->states) {
            std::lock_guard trace_lock(state->traceMutex);
            events.insert(events.end(), state->trace.begin(),
                          state->trace.end());
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.startNs != b.startNs)
                             return a.startNs < b.startNs;
                         // Longer span first: parents open before their
                         // children when timestamps tie.
                         return a.durNs > b.durNs;
                     });
    return events;
}

void
Registry::setThreadName(std::string name)
{
    ThreadState &state = impl_->threadState();
    std::lock_guard lock(impl_->mutex);
    state.name = std::move(name);
}

std::vector<std::pair<std::uint32_t, std::string>>
Registry::threadNames() const
{
    std::vector<std::pair<std::uint32_t, std::string>> names;
    std::lock_guard lock(impl_->mutex);
    for (const auto &state : impl_->states) {
        if (!state->name.empty())
            names.emplace_back(state->tid, state->name);
    }
    return names;
}

std::uint64_t
Registry::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - impl_->epoch)
            .count());
}

void
Registry::recordSpan(const char *name, std::uint64_t start_ns,
                     std::uint64_t dur_ns, TraceArgs args)
{
    recordLinkedSpan(name, start_ns, dur_ns, {}, std::move(args));
}

void
Registry::recordLinkedSpan(const char *name, std::uint64_t start_ns,
                           std::uint64_t dur_ns,
                           const detail::SpanLink &link, TraceArgs args)
{
    if (!Telemetry::enabled())
        return;
    ThreadState &state = impl_->threadState();
    std::lock_guard lock(state.traceMutex);
    if (state.trace.size() >= maxTraceEventsPerThread) {
        impl_->traceDropped->increment();
        return;
    }
    TraceEvent event;
    event.name = name;
    event.startNs = start_ns;
    event.durNs = dur_ns;
    event.tid = state.tid;
    event.spanId = link.spanId;
    event.parentId = link.parentId;
    event.flowId = link.flowId;
    event.flowPoint = link.flowPoint;
    event.scoped = link.scoped;
    event.args = std::move(args);
    state.trace.push_back(std::move(event));
}

std::uint64_t
Registry::mintFlowId()
{
    return mintLinkId();
}

std::uint64_t
Registry::recordFlowSpan(const char *name, std::uint64_t start_ns,
                         std::uint64_t dur_ns, const TraceContext &ctx,
                         FlowPoint point, TraceArgs args)
{
    if (!Telemetry::enabled())
        return 0;
    detail::SpanLink link;
    link.spanId = mintLinkId();
    link.parentId = ctx.spanId;
    link.flowId = ctx.flowId;
    link.flowPoint = ctx.flowId ? point : FlowPoint::none;
    recordLinkedSpan(name, start_ns, dur_ns, link, std::move(args));
    return link.spanId;
}

TraceContext
Registry::currentContext()
{
    return tlsContext;
}

TraceContext
Registry::setCurrentContext(const TraceContext &ctx)
{
    const TraceContext previous = tlsContext;
    tlsContext = ctx;
    return previous;
}

void
Registry::resetForTest()
{
    std::lock_guard lock(impl_->mutex);
    for (auto &state : impl_->states) {
        for (auto &slot : state->counters)
            slot.store(0, std::memory_order_relaxed);
        for (auto &shard : state->histograms) {
            for (auto &bucket : shard.buckets)
                bucket.store(0, std::memory_order_relaxed);
            shard.count.store(0, std::memory_order_relaxed);
            shard.sum.store(0.0, std::memory_order_relaxed);
        }
        std::lock_guard trace_lock(state->traceMutex);
        state->trace.clear();
    }
    for (auto &bits : impl_->gaugeBits)
        bits.store(0, std::memory_order_relaxed);
}

void
Counter::add(std::uint64_t n)
{
    if (!Telemetry::enabled())
        return;
    Registry::global().impl_->threadState().counters[id_].fetch_add(
        n, std::memory_order_relaxed);
}

void
Gauge::set(double value)
{
    if (!Telemetry::enabled())
        return;
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    Registry::global().impl_->gaugeBits[id_].store(
        bits, std::memory_order_relaxed);
}

void
Histogram::observe(double value)
{
    if (!Telemetry::enabled())
        return;
    const std::size_t bucket = static_cast<std::size_t>(
        std::upper_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
    auto &shard =
        Registry::global().impl_->threadState().histograms[id_];
    shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(shard.sum, value);
}

} // namespace uvolt::telemetry
