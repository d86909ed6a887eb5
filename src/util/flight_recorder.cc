#include "util/flight_recorder.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>

#include "util/format.hh"
#include "util/fsio.hh"
#include "util/json.hh"
#include "util/telemetry.hh"

namespace uvolt::flightrec
{

const char *
levelName(Level level)
{
    switch (level) {
    case Level::debug:
        return "debug";
    case Level::info:
        return "info";
    case Level::warn:
        return "warn";
    case Level::error:
        return "error";
    }
    return "info";
}

namespace
{

/** Bounded copy into a fixed char array, always NUL-terminated. */
template <std::size_t N>
void
copyTruncated(char (&dst)[N], std::string_view src)
{
    const std::size_t n = std::min(src.size(), N - 1);
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
}

/** One thread's ring. The owner appends; dumps copy under the mutex. */
struct Shard
{
    mutable std::mutex mutex;
    std::array<Event, FlightRecorder::shardCapacity> ring{};
    std::uint64_t written = 0; ///< total appends (wraps overwrite)
};

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

} // namespace

struct FlightRecorder::Impl
{
    mutable std::mutex mutex; ///< shard list, dump list
    std::vector<std::shared_ptr<Shard>> shards;
    std::vector<std::string> dumpPaths;
    std::atomic<std::uint64_t> nextSeq{1};

    Shard &
    threadShard()
    {
        thread_local std::shared_ptr<Shard> local;
        if (!local) {
            local = std::make_shared<Shard>();
            std::lock_guard lock(mutex);
            shards.push_back(local);
        }
        return *local;
    }
};

FlightRecorder::FlightRecorder() : impl_(new Impl) {}

FlightRecorder &
FlightRecorder::global()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::record(Level level, std::string_view component,
                       std::string_view message,
                       std::uint64_t request_id)
{
    Shard &shard = impl_->threadShard();
    if (request_id == 0)
        request_id = telemetry::currentContext().flowId;
    Event event;
    event.seq = impl_->nextSeq.fetch_add(1, std::memory_order_relaxed);
    event.ns = telemetry::Registry::global().nowNs();
    event.requestId = request_id;
    event.level = level;
    copyTruncated(event.component, component);
    copyTruncated(event.message, message);
    std::lock_guard lock(shard.mutex);
    shard.ring[shard.written % shardCapacity] = event;
    ++shard.written;
}

std::vector<Event>
FlightRecorder::snapshot() const
{
    std::vector<Event> events;
    {
        std::lock_guard lock(impl_->mutex);
        for (const auto &shard : impl_->shards) {
            std::lock_guard shard_lock(shard->mutex);
            const std::uint64_t retained =
                std::min<std::uint64_t>(shard->written, shardCapacity);
            for (std::uint64_t i = 0; i < retained; ++i)
                events.push_back(
                    shard->ring[(shard->written - retained + i) %
                                shardCapacity]);
        }
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) { return a.seq < b.seq; });
    return events;
}

std::uint64_t
FlightRecorder::recorded() const
{
    std::uint64_t total = 0;
    std::lock_guard lock(impl_->mutex);
    for (const auto &shard : impl_->shards) {
        std::lock_guard shard_lock(shard->mutex);
        total += shard->written;
    }
    return total;
}

std::uint64_t
FlightRecorder::overwritten() const
{
    std::uint64_t lost = 0;
    std::lock_guard lock(impl_->mutex);
    for (const auto &shard : impl_->shards) {
        std::lock_guard shard_lock(shard->mutex);
        if (shard->written > shardCapacity)
            lost += shard->written - shardCapacity;
    }
    return lost;
}

std::string
FlightRecorder::dump(std::string_view reason, const std::string &dir)
{
    const std::vector<Event> events = snapshot();
    if (events.empty())
        return "";

    const std::string path = (dir.empty() ? "results" : dir) +
        "/blackbox_" + sanitizedReason(reason) + ".json";

    std::string out;
    out += "{\n";
    out += strFormat("  \"schema\": \"uvolt-blackbox-v1\",\n");
    out += strFormat("  \"reason\": \"{}\",\n", json::escaped(reason));
    out += strFormat("  \"recorded\": {},\n", recorded());
    out += strFormat("  \"dropped\": {},\n", overwritten());
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
    std::lock_guard lock(impl_->mutex);
    impl_->dumpPaths.push_back(path);
    return path;
}

std::vector<std::string>
FlightRecorder::dumps() const
{
    std::lock_guard lock(impl_->mutex);
    return impl_->dumpPaths;
}

void
FlightRecorder::resetForTest()
{
    std::lock_guard lock(impl_->mutex);
    for (auto &shard : impl_->shards) {
        std::lock_guard shard_lock(shard->mutex);
        shard->written = 0;
        shard->ring.fill(Event{});
    }
    impl_->dumpPaths.clear();
    impl_->nextSeq.store(1, std::memory_order_relaxed);
}

} // namespace uvolt::flightrec
