/**
 * @file
 * Status and error reporting, following the gem5 fatal/panic convention:
 *
 *  - panic(): an internal invariant was violated (a library bug); dumps
 *    the flight recorder, then aborts.
 *  - fatal(): the caller asked for something impossible (user error);
 *    exits with status 1.
 *  - warn()/inform(): non-fatal status messages on stderr. The tagged
 *    variant warnc() names the emitting subsystem; every
 *    message (tagged or not) is also appended to the flight recorder
 *    (util/flight_recorder.hh), so a later black-box dump carries the
 *    full recent history even when stderr was rate-limited.
 *
 * Rate limiting: stderr warnings are throttled per component by a token
 * bucket (a sustained PMBus NACK storm prints a handful of lines plus a
 * "(+N similar suppressed)" summary instead of one line per retry).
 * fatal()/panic() are never throttled. The flight recorder sees every
 * message regardless — suppression is a stderr policy, not data loss.
 *
 * Messages use std::format-style formatting.
 */

#ifndef UVOLT_UTIL_LOGGING_HH
#define UVOLT_UTIL_LOGGING_HH

#include <cstdint>
#include <string>
#include <string_view>

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

/** Lines printed vs. swallowed by the per-component token bucket. */
struct LogStats
{
    std::uint64_t emitted = 0;
    std::uint64_t suppressed = 0;
};

/** Process-wide stderr throttling stats (monotonic). */
LogStats logStats();

/** Turn the stderr token bucket off/on (tests; default on). */
void setLogRateLimit(bool on);

} // namespace uvolt

#endif // UVOLT_UTIL_LOGGING_HH
