#include "util/logging.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>

#include "util/flight_recorder.hh"

namespace uvolt
{

namespace
{

std::atomic<bool> rateLimit{true};
std::atomic<std::uint64_t> emittedTotal{0};
std::atomic<std::uint64_t> suppressedTotal{0};

// One process-wide lock so concurrent fleet workers' messages interleave
// whole lines, never characters. fprintf to the same FILE* is not atomic
// across platforms. The token buckets share it: log emission is far off
// any hot path.
std::mutex &
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

/**
 * Per-component token bucket: a burst of lines passes, a storm drains
 * the bucket and is swallowed; the count of swallowed lines rides out
 * on the next line that passes.
 */
struct Bucket
{
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last{};
    std::uint64_t suppressed = 0;
    bool primed = false;
};

constexpr double bucketBurst = 8.0;      ///< lines admitted back-to-back
constexpr double bucketRefillPerSec = 4.0;

std::map<std::string, Bucket, std::less<>> &
buckets()
{
    static std::map<std::string, Bucket, std::less<>> map;
    return map;
}

/**
 * Decide under logMutex() whether this component may print. On true,
 * @a suffix carries the "(+N similar suppressed)" tail when a storm
 * just ended.
 */
bool
admitLine(std::string_view component, std::string &suffix)
{
    if (!rateLimit.load(std::memory_order_relaxed))
        return true;
    auto it = buckets().find(component);
    if (it == buckets().end())
        it = buckets().emplace(std::string(component), Bucket{}).first;
    Bucket &bucket = it->second;
    const auto now = std::chrono::steady_clock::now();
    if (!bucket.primed) {
        bucket.tokens = bucketBurst;
        bucket.primed = true;
    } else {
        const double elapsed =
            std::chrono::duration<double>(now - bucket.last).count();
        bucket.tokens = std::min(bucketBurst,
                                 bucket.tokens +
                                     elapsed * bucketRefillPerSec);
    }
    bucket.last = now;
    if (bucket.tokens < 1.0) {
        ++bucket.suppressed;
        return false;
    }
    bucket.tokens -= 1.0;
    if (bucket.suppressed > 0) {
        suffix = strFormat(" (+{} similar suppressed)",
                           bucket.suppressed);
        bucket.suppressed = 0;
    }
    return true;
}

void
emitTagged(const char *prefix, std::string_view component,
           std::string_view message, bool throttle)
{
    std::lock_guard lock(logMutex());
    std::string suffix;
    if (throttle && !admitLine(component, suffix)) {
        suppressedTotal.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    emittedTotal.fetch_add(1, std::memory_order_relaxed);
    if (component.empty() || component == "app") {
        std::fprintf(stderr, "%s: %.*s%s\n", prefix,
                     static_cast<int>(message.size()), message.data(),
                     suffix.c_str());
    } else {
        std::fprintf(stderr, "%s: [%.*s] %.*s%s\n", prefix,
                     static_cast<int>(component.size()),
                     component.data(),
                     static_cast<int>(message.size()), message.data(),
                     suffix.c_str());
    }
}

} // namespace

namespace detail
{

void
panicImpl(std::string_view message)
{
    flightrec::note(flightrec::Level::error, "panic", message);
    // The black box is the point of panic(): capture the recent event
    // history before the process is gone. Best-effort — a failed dump
    // must not mask the abort.
    flightrec::FlightRecorder::global().dump("panic");
    emitTagged("panic", "app", message, /*throttle=*/false);
    std::abort();
}

void
fatalImpl(std::string_view message)
{
    flightrec::note(flightrec::Level::error, "fatal", message);
    emitTagged("fatal", "app", message, /*throttle=*/false);
    std::exit(1);
}

void
warnImpl(std::string_view component, std::string_view message)
{
    flightrec::note(flightrec::Level::warn, component, message);
    emitTagged("warn", component, message, /*throttle=*/true);
}

void
informImpl(std::string_view component, std::string_view message)
{
    flightrec::note(flightrec::Level::info, component, message);
    emitTagged("info", component, message, /*throttle=*/true);
}

} // namespace detail

LogStats
logStats()
{
    LogStats stats;
    stats.emitted = emittedTotal.load(std::memory_order_relaxed);
    stats.suppressed = suppressedTotal.load(std::memory_order_relaxed);
    return stats;
}

void
setLogRateLimit(bool on)
{
    rateLimit.store(on, std::memory_order_relaxed);
}

} // namespace uvolt
