#include "util/logging.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>

#include "util/fsio.hh"
#include "util/json.hh"
#include "util/telemetry.hh"

namespace uvolt
{

namespace
{

// One process-wide lock so concurrent fleet workers' messages interleave
// whole lines, never characters. fprintf to the same FILE* is not atomic
// across platforms. The token buckets and the black box share it: log
// emission is far off any hot path.
std::mutex &
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

/**
 * One black-box record. Component and message are truncating char
 * arrays so appending is a member-wise copy into the ring.
 */
struct Event
{
    std::uint64_t seq = 0;       ///< 1-based order stamp
    std::uint64_t ns = 0;        ///< telemetry timebase (Registry::nowNs)
    std::uint64_t requestId = 0; ///< flow id of the active request; 0 = none
    LogLevel level = LogLevel::info;
    char component[16] = {};  ///< subsystem tag ("pmbus", "serve", ...)
    char message[104] = {};   ///< truncated at 103 chars
};

/**
 * The ring and its counts, guarded by logMutex(). Constant-initialized
 * into zeroed static storage: a page of the ring is touched only when
 * an event first lands on it.
 */
struct BlackBox
{
    std::array<Event, blackbox::capacity> ring{};
    std::uint64_t recorded = 0; ///< events ever appended = the last seq
    std::vector<std::string> dumpPaths;
};

constinit BlackBox blackBox;

const char *
levelName(LogLevel level)
{
    switch (level) {
    case LogLevel::info:
        return "info";
    case LogLevel::warn:
        return "warn";
    case LogLevel::error:
        return "error";
    }
    return "info";
}

/** Bounded copy into a fixed char array, always NUL-terminated. */
template <std::size_t N>
void
copyTruncated(char (&dst)[N], std::string_view src)
{
    const std::size_t n = std::min(src.size(), N - 1);
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
}

/** Everything but the stamps, built before the lock is taken. */
Event
makeEvent(LogLevel level, std::string_view component,
          std::string_view message, std::uint64_t request_id)
{
    Event event;
    event.requestId = request_id ? request_id
                                 : telemetry::currentContext().flowId;
    event.level = level;
    copyTruncated(event.component, component);
    copyTruncated(event.message, message);
    return event;
}

/** Stamp @a event and store it over the oldest slot; holds logMutex(). */
void
appendLocked(Event &event)
{
    event.seq = ++blackBox.recorded;
    event.ns = telemetry::Registry::global().nowNs();
    blackBox.ring[(event.seq - 1) % blackbox::capacity] = event;
}

std::string
sanitizedReason(std::string_view reason)
{
    std::string out;
    out.reserve(reason.size());
    for (char c : reason) {
        if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')
            out.push_back(c);
        else if (c >= 'A' && c <= 'Z')
            out.push_back(static_cast<char>(c - 'A' + 'a'));
        else
            out.push_back('_');
    }
    return out.empty() ? std::string("unknown") : out;
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

/**
 * Append @a event to the ring and, unless @a component's bucket is
 * drained, print @a message: one critical section, so the ring's order
 * is stderr's order.
 */
void
emitTagged(Event event, const char *prefix, std::string_view component,
           std::string_view message, bool throttle)
{
    std::lock_guard lock(logMutex());
    appendLocked(event);
    std::string suffix;
    if (throttle && !admitLine(component, suffix))
        return;
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

void
note(LogLevel level, std::string_view component, std::string_view message,
     std::uint64_t request_id)
{
    Event event = makeEvent(level, component, message, request_id);
    std::lock_guard lock(logMutex());
    appendLocked(event);
}

namespace blackbox
{

std::string
dump(std::string_view reason, const std::string &dir)
{
    // Copy under the lock; format and write outside it, so a failing
    // write that logs (or a panic() mid-dump) cannot deadlock on it.
    std::vector<Event> events;
    std::uint64_t recorded = 0;
    {
        std::lock_guard lock(logMutex());
        recorded = blackBox.recorded;
        const std::uint64_t retained =
            std::min<std::uint64_t>(recorded, capacity);
        events.reserve(retained);
        for (std::uint64_t seq = recorded - retained + 1; seq <= recorded;
             ++seq)
            events.push_back(blackBox.ring[(seq - 1) % capacity]);
    }
    if (events.empty())
        return "";

    const std::string path = (dir.empty() ? "results" : dir) +
        "/blackbox_" + sanitizedReason(reason) + ".json";

    std::string out;
    out += "{\n";
    out += strFormat("  \"schema\": \"uvolt-blackbox-v1\",\n");
    out += strFormat("  \"reason\": \"{}\",\n", json::escaped(reason));
    out += strFormat("  \"recorded\": {},\n", recorded);
    out += strFormat("  \"dropped\": {},\n", recorded - events.size());
    out += "  \"events\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Event &e = events[i];
        out += strFormat(
            "    {{\"seq\": {}, \"ns\": {}, \"level\": \"{}\", "
            "\"component\": \"{}\", \"request\": {}, "
            "\"message\": \"{}\"}}{}\n",
            e.seq, e.ns, levelName(e.level), json::escaped(e.component),
            e.requestId, json::escaped(e.message),
            i + 1 < events.size() ? "," : "");
    }
    out += "  ]\n";
    out += "}\n";

    if (!writeFileAtomic(path, out))
        return "";
    std::lock_guard lock(logMutex());
    if (std::find(blackBox.dumpPaths.begin(), blackBox.dumpPaths.end(),
                  path) == blackBox.dumpPaths.end())
        blackBox.dumpPaths.push_back(path);
    return path;
}

std::vector<std::string>
dumps()
{
    std::lock_guard lock(logMutex());
    return blackBox.dumpPaths;
}

void
resetForTest()
{
    std::lock_guard lock(logMutex());
    blackBox.ring.fill(Event{});
    blackBox.recorded = 0;
    blackBox.dumpPaths.clear();
}

} // namespace blackbox

namespace detail
{

void
panicImpl(std::string_view message)
{
    emitTagged(makeEvent(LogLevel::error, "panic", message, 0), "panic",
               "app", message, /*throttle=*/false);
    // The black box is the point of panic(): capture the recent event
    // history before the process is gone. Best-effort — a failed dump
    // must not mask the abort.
    blackbox::dump("panic");
    std::abort();
}

void
fatalImpl(std::string_view message)
{
    emitTagged(makeEvent(LogLevel::error, "fatal", message, 0), "fatal",
               "app", message, /*throttle=*/false);
    std::exit(1);
}

void
warnImpl(std::string_view component, std::string_view message)
{
    emitTagged(makeEvent(LogLevel::warn, component, message, 0), "warn",
               component, message, /*throttle=*/true);
}

void
informImpl(std::string_view component, std::string_view message)
{
    emitTagged(makeEvent(LogLevel::info, component, message, 0), "info",
               component, message, /*throttle=*/true);
}

} // namespace detail

} // namespace uvolt
