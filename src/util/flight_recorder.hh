/**
 * @file
 * Flight recorder: a fixed-capacity, per-thread-sharded ring buffer of
 * recent structured events, dumped to JSON when something goes wrong.
 *
 * Tracing answers "what did this request do"; the flight recorder
 * answers "what was happening just before the process panicked / the
 * server degraded / deadlines started blowing" — post-mortem
 * visibility without always-on tracing. Producers (warn()/inform(),
 * serve health transitions, retry loops) append into their own ring
 * shard: a fixed array of fixed-size Event records, so the hot path
 * never allocates; when a shard wraps, the oldest records are
 * overwritten and counted.
 *
 * A dump (`FlightRecorder::dump("degraded")`) merges every shard in
 * global sequence order and writes `<dir>/blackbox_<reason>.json`
 * (schema "uvolt-blackbox-v1") atomically. panic() dumps automatically
 * before aborting.
 *
 * Unlike tracing, the recorder is always on — its producers are coarse
 * (warnings, health transitions, retries), never per-bitcell.
 */

#ifndef UVOLT_UTIL_FLIGHT_RECORDER_HH
#define UVOLT_UTIL_FLIGHT_RECORDER_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace uvolt::flightrec
{

/** Severity of a recorded event. */
enum class Level : std::uint8_t
{
    debug = 0,
    info,
    warn,
    error,
};

/** Lowercase name for JSON/log output ("warn", "error", ...). */
const char *levelName(Level level);

/**
 * One fixed-size record. Component and message are truncating char
 * arrays so appending is a member-wise copy — no allocation, no
 * pointer chasing on the hot path.
 */
struct Event
{
    std::uint64_t seq = 0;       ///< global order stamp (1-based)
    std::uint64_t ns = 0;        ///< telemetry timebase (Registry::nowNs)
    std::uint64_t requestId = 0; ///< flow id of the active request; 0 = none
    Level level = Level::info;
    char component[16] = {};  ///< subsystem tag ("pmbus", "serve", ...)
    char message[104] = {};   ///< truncated at 103 chars
};

/** The process-wide recorder. All methods are thread-safe. */
class FlightRecorder
{
  public:
    static FlightRecorder &global();

    /** Events each thread's ring holds before overwriting the oldest. */
    static constexpr std::size_t shardCapacity = 256;

    /**
     * Append one event to the calling thread's shard. @a request_id 0
     * means "use the installed TraceContext's flow id, if any".
     */
    void record(Level level, std::string_view component,
                std::string_view message, std::uint64_t request_id = 0);

    /** Every retained event, merged across shards, sequence order. */
    std::vector<Event> snapshot() const;

    /** Total events ever recorded / lost to ring wrap. */
    std::uint64_t recorded() const;
    std::uint64_t overwritten() const;

    /**
     * Write the current snapshot as <dir>/blackbox_<reason>.json
     * ("results" when @a dir is empty; reason is sanitized to
     * [a-z0-9_]). Returns the path written, or "" on failure or when
     * the ring is empty — an empty black box is noise, not evidence.
     */
    std::string dump(std::string_view reason, const std::string &dir = "");

    /** Paths written by dump() in this process, oldest first. */
    std::vector<std::string> dumps() const;

    /** Drop all events, counts, and the dump list. Tests only. */
    void resetForTest();

  private:
    FlightRecorder();
    struct Impl;
    Impl *impl_; ///< leaked intentionally: usable during static dtors
};

/** Shorthand for FlightRecorder::global().record(...). */
inline void
note(Level level, std::string_view component, std::string_view message,
     std::uint64_t request_id = 0)
{
    FlightRecorder::global().record(level, component, message,
                                    request_id);
}

} // namespace uvolt::flightrec

#endif // UVOLT_UTIL_FLIGHT_RECORDER_HH
