/**
 * @file
 * A small JSON value-tree parser for tests.
 *
 * The library writes several JSON artifacts (Chrome traces, perf-
 * timeline rows, run manifests, flight-recorder black boxes) and reads
 * none of them back: scripts/check_perf.py and scripts/check_trace.py
 * are the readers of record. Tests still need to check the structure
 * of documents whose bytes vary from run to run (measured timings,
 * wall-clock stamps, a real campaign's manifest), so this strict
 * recursive-descent parser lives beside them. It accepts what the
 * writers emit (objects, arrays, strings with the common escapes,
 * doubles, bools, null) and reports malformed input as
 * Errc::corruptCache with line context.
 */

#ifndef UVOLT_TESTS_SUPPORT_JSON_VALUE_HH
#define UVOLT_TESTS_SUPPORT_JSON_VALUE_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace uvolt::json
{

/** One node of a parsed JSON document. */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Parse a complete document (trailing garbage is an error). */
    static Expected<Value> parse(std::string_view text);

    /** Parse the file at @a path; a missing file is Errc::cacheMiss. */
    static Expected<Value> parseFile(const std::string &path);

    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** The boolean; fatal() on a non-bool. */
    bool boolean() const;

    /** The number; fatal() on a non-number. */
    double number() const;

    /** The string; fatal() on a non-string. */
    const std::string &string() const;

    /** Array elements; fatal() on a non-array. */
    const std::vector<Value> &items() const;

    /** Object members in document order; fatal() on a non-object. */
    const std::vector<std::pair<std::string, Value>> &members() const;

    /** Member by key, or nullptr (objects only; fatal() otherwise). */
    const Value *find(std::string_view key) const;

    /** Member by key; fatal() when absent. */
    const Value &at(std::string_view key) const;

    // Typed convenience lookups with defaults (objects only).
    double numberOr(std::string_view key, double fallback) const;
    std::string stringOr(std::string_view key,
                         const std::string &fallback) const;

  private:
    friend class Parser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> items_;
    std::vector<std::pair<std::string, Value>> members_;
};

} // namespace uvolt::json

#endif // UVOLT_TESTS_SUPPORT_JSON_VALUE_HH
