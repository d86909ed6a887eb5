/**
 * @file
 * Status and error reporting, following the gem5 fatal/panic convention:
 *
 *  - panic(): an internal invariant was violated (a library bug); dumps
 *    the black box, then aborts.
 *  - fatal(): the caller asked for something impossible (user error);
 *    exits with status 1.
 *  - warn()/inform(): non-fatal status messages on stderr. The tagged
 *    variant warnc() names the emitting subsystem.
 *
 * The black box: every message (tagged or not) is also appended to one
 * process-wide ring of the last blackbox::capacity events, and note()
 * appends an event without printing it. blackbox::dump() writes the
 * ring as `<dir>/blackbox_<reason>.json` (schema "uvolt-blackbox-v1")
 * when something goes wrong: panic(), a serve degradation, a deadline
 * storm. Producers are coarse (warnings, health transitions, retries,
 * failed requests), so the ring shares the one log lock that already
 * serializes stderr: an event and its stderr line are written in one
 * critical section.
 *
 * Rate limiting: stderr warnings are throttled per component by a token
 * bucket (a sustained PMBus NACK storm prints a handful of lines plus a
 * "(+N similar suppressed)" summary instead of one line per retry).
 * fatal()/panic() are never throttled. The black box sees every
 * message regardless — suppression is a stderr policy, not data loss.
 *
 * Messages use std::format-style formatting.
 */

#ifndef UVOLT_UTIL_LOGGING_HH
#define UVOLT_UTIL_LOGGING_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/format.hh"

namespace uvolt
{

namespace detail
{

[[noreturn]] void panicImpl(std::string_view message);
[[noreturn]] void fatalImpl(std::string_view message);
void warnImpl(std::string_view component, std::string_view message);
void informImpl(std::string_view component, std::string_view message);

} // namespace detail

/** Severity of a black-box event. */
enum class LogLevel : std::uint8_t
{
    info,
    warn,
    error,
};

/**
 * Record an event in the black box without printing it. @a request_id
 * 0 means "use the installed TraceContext's flow id, if any".
 */
void note(LogLevel level, std::string_view component,
          std::string_view message, std::uint64_t request_id = 0);

namespace blackbox
{

/** Events the ring holds before overwriting the oldest. */
inline constexpr std::size_t capacity = 1024;

/**
 * Write the ring as <dir>/blackbox_<reason>.json ("results" when
 * @a dir is empty; reason is sanitized to [a-z0-9_]). Returns the path
 * written, or "" on failure or when the ring is empty — an empty black
 * box is noise, not evidence.
 */
std::string dump(std::string_view reason, const std::string &dir = "");

/** Files written by dump() in this process, each once however often it
 *  was rewritten, in the order of their first dump. */
std::vector<std::string> dumps();

/** Drop every event, the counts, and the dump list. Tests only. */
void resetForTest();

} // namespace blackbox

/** Abort: an invariant the library itself guarantees was violated. */
template <typename... Args>
[[noreturn]] void
panic(std::string_view fmt, Args &&...args)
{
    detail::panicImpl(strFormat(fmt, std::forward<Args>(args)...));
}

/** Exit(1): the simulation cannot continue because of a caller error. */
template <typename... Args>
[[noreturn]] void
fatal(std::string_view fmt, Args &&...args)
{
    detail::fatalImpl(strFormat(fmt, std::forward<Args>(args)...));
}

/** Component-tagged warning: "warn: [pmbus] ..." on stderr. */
template <typename... Args>
void
warnc(std::string_view component, std::string_view fmt, Args &&...args)
{
    detail::warnImpl(component,
                     strFormat(fmt, std::forward<Args>(args)...));
}

/** Non-fatal warning on stderr (untagged; uses the "app" component). */
template <typename... Args>
void
warn(std::string_view fmt, Args &&...args)
{
    detail::warnImpl("app", strFormat(fmt, std::forward<Args>(args)...));
}

/** Informational status message on stderr. */
template <typename... Args>
void
inform(std::string_view fmt, Args &&...args)
{
    detail::informImpl("app",
                       strFormat(fmt, std::forward<Args>(args)...));
}

} // namespace uvolt

#endif // UVOLT_UTIL_LOGGING_HH
