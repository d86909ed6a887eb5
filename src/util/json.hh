/**
 * @file
 * JSON string escaping for the writers.
 *
 * The observability layer emits several JSON artifacts (Chrome traces,
 * run records, black boxes). The toolchain ships no JSON library, so
 * this header provides the one piece every writer needs: RFC 8259
 * string escaping. The library
 * reads none of these documents back; scripts/check_perf.py and
 * scripts/check_trace.py are their readers.
 */

#ifndef UVOLT_UTIL_JSON_HH
#define UVOLT_UTIL_JSON_HH

#include <string>
#include <string_view>

namespace uvolt::json
{

/** Escape a string for inclusion inside JSON double quotes. */
std::string escaped(std::string_view text);

} // namespace uvolt::json

#endif // UVOLT_UTIL_JSON_HH
