/**
 * @file
 * Minimal JSON support: string escaping and a small value-tree parser.
 *
 * The observability layer emits several JSON artifacts (Chrome traces,
 * metrics snapshots, perf-timeline rows, run manifests) and must be able
 * to load its own manifests back for provenance checks. The toolchain
 * ships no JSON library, so this header provides exactly the subset the
 * repo needs: RFC 8259 string escaping for the writers, and a strict
 * recursive-descent parser producing an immutable Value tree for the
 * readers. The parser accepts only what the writers emit (objects,
 * arrays, strings with the common escapes, doubles, bools, null) and
 * reports malformed input as Errc::corruptCache with line context, the
 * same taxonomy the FVM cache uses for unusable on-disk artifacts.
 */

#ifndef UVOLT_UTIL_JSON_HH
#define UVOLT_UTIL_JSON_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace uvolt::json
{

/** Escape a string for inclusion inside JSON double quotes. */
std::string escaped(std::string_view text);

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

    /** Parse the file at @a path. */
    static Expected<Value> parseFile(const std::string &path);

    Kind kind() const { return kind_; }
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
    bool boolOr(std::string_view key, bool fallback) const;

    /**
     * The number as a count in [0, @a max]. Negative, non-finite and
     * larger values are Errc::corruptCache: casting them to an integer
     * would be undefined behavior.
     */
    Expected<std::uint64_t>
    count(std::uint64_t max =
              std::numeric_limits<std::uint64_t>::max()) const;

    /** Member @a key as a count(), or @a fallback when not a number. */
    Expected<std::uint64_t>
    countOr(std::string_view key, std::uint64_t fallback,
            std::uint64_t max =
                std::numeric_limits<std::uint64_t>::max()) const;

  private:
    friend class Parser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> items_;
    std::vector<std::pair<std::string, Value>> members_;
};

/**
 * Unwraps the count() fields of one document and keeps the first
 * error, so a parser reads every field and then fails once.
 */
class Counts
{
  public:
    /** The count, or 0 after recording its error. */
    std::uint64_t operator()(Expected<std::uint64_t> value);

    const std::optional<Error> &error() const { return error_; }

  private:
    std::optional<Error> error_;
};

} // namespace uvolt::json

#endif // UVOLT_UTIL_JSON_HH
