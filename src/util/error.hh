/**
 * @file
 * Recoverable-error taxonomy for the measurement path.
 *
 * The paper's methodology recovers crashed boards by reconfiguration and
 * repeats unreliable transactions; in a harsh environment those are
 * ordinary events, not program bugs. fatal()/panic() stay reserved for
 * caller errors and broken invariants; everything a retry, a soft reset,
 * or a checkpoint resume can absorb travels as an Expected<T> carrying an
 * Errc, so campaign engines can decide policy instead of dying.
 */

#ifndef UVOLT_UTIL_ERROR_HH
#define UVOLT_UTIL_ERROR_HH

#include <optional>
#include <string>
#include <utility>

#include "util/logging.hh"

namespace uvolt
{

/** What went wrong on a recoverable path. */
enum class Errc
{
    ok = 0,
    crashDetected,     ///< DONE pin dropped (real or injected crash)
    linkExhausted,     ///< serial retransmission attempts exhausted
    pmbusExhausted,    ///< PMBus transaction retries exhausted
    verifyExhausted,   ///< setpoint verify-after-write never converged
    recoveryExhausted, ///< watchdog gave up recovering a campaign
    badCheckpoint,     ///< checkpoint failed to parse or mismatches
    cacheMiss,         ///< no cached artifact for the requested key
    corruptCache,      ///< cache file present but unusable (malformed
                       ///< or for a different chip/geometry)
    queueFull,         ///< admission control rejected: queue at capacity
    deadlineExceeded,  ///< request deadline passed before completion
    serverStopped,     ///< server draining/stopped; request not taken
    loadShed,          ///< degraded server shed low-priority work
    unknownFlag,       ///< command line used an undeclared/malformed flag
    invalidRequest,    ///< request or job malformed; retrying cannot help
};

/** Stable short name of an error code (for messages and logs). */
const char *errcName(Errc code);

/** One recoverable error: a code plus human-readable context. */
struct [[nodiscard]] Error
{
    Errc code = Errc::ok;
    std::string message;
};

/**
 * Minimal expected-style result: either a T or an Error. Accessing the
 * wrong alternative is a library bug (panic), not a user error.
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}
    Expected(Error error) : error_(std::move(error))
    {
        if (error_.code == Errc::ok)
            panic("Expected constructed from an ok Error");
    }

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    Errc code() const { return ok() ? Errc::ok : error_.code; }

    const T &
    value() const
    {
        if (!ok())
            panic("Expected::value() on error: {}", error_.message);
        return *value_;
    }

    T &
    value()
    {
        if (!ok())
            panic("Expected::value() on error: {}", error_.message);
        return *value_;
    }

    /** Move the value out (success path of a retry loop). */
    T
    take()
    {
        if (!ok())
            panic("Expected::take() on error: {}", error_.message);
        return std::move(*value_);
    }

    const Error &
    error() const
    {
        if (ok())
            panic("Expected::error() on a success value");
        return error_;
    }

    /** Unwrap for callers with no recovery policy: fatal() on error. */
    T
    orFatal() &&
    {
        if (!ok())
            fatal("{}", error_.message);
        return std::move(*value_);
    }

  private:
    std::optional<T> value_;
    Error error_;
};

/** Expected<void>: success carries no payload. */
template <>
class [[nodiscard]] Expected<void>
{
  public:
    Expected() = default;
    Expected(Error error) : error_(std::move(error))
    {
        if (error_.code == Errc::ok)
            panic("Expected constructed from an ok Error");
    }

    bool ok() const { return error_.code == Errc::ok; }
    explicit operator bool() const { return ok(); }

    Errc code() const { return error_.code; }

    const Error &
    error() const
    {
        if (ok())
            panic("Expected::error() on a success value");
        return error_;
    }

    void
    orFatal() const
    {
        if (!ok())
            fatal("{}", error_.message);
    }

  private:
    Error error_;
};

/** Build an Error with formatted context. */
template <typename... Args>
Error
makeError(Errc code, std::string_view fmt, Args &&...args)
{
    return Error{code, strFormat("[{}] {}", errcName(code),
                                 strFormat(fmt,
                                           std::forward<Args>(args)...))};
}

} // namespace uvolt

#endif // UVOLT_UTIL_ERROR_HH
