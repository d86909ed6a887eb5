/**
 * @file
 * Minimal command-line flag parsing for the examples and bench binaries.
 *
 * Supports "--name value", "--name=value", and boolean "--name" forms,
 * with typed accessors and an automatically generated --help text.
 */

#ifndef UVOLT_UTIL_CLI_HH
#define UVOLT_UTIL_CLI_HH

#include <map>
#include <string>
#include <vector>

#include "util/error.hh"

namespace uvolt
{

/** Declarative command-line parser. */
class CliParser
{
  public:
    /** @param description one-line program description for --help. */
    explicit CliParser(std::string description);

    /** Declare a string flag with a default. */
    void addString(const std::string &name, const std::string &default_value,
                   const std::string &help);

    /** Declare a floating-point flag with a default. */
    void addDouble(const std::string &name, double default_value,
                   const std::string &help);

    /** Declare an integer flag with a default. */
    void addInt(const std::string &name, long default_value,
                const std::string &help);

    /** Declare a boolean flag (defaults to false; presence sets true). */
    void addBool(const std::string &name, const std::string &help);

    /**
     * Parse argv: true = proceed, false = --help was requested (help is
     * printed). An undeclared "--flag" or a flag missing its value comes
     * back as an Errc::unknownFlag Error; a tool writes
     * tryParse(...).orFatal(), a service reports it through its own
     * channel.
     */
    Expected<bool> tryParse(int argc, char **argv);

    std::string getString(const std::string &name) const;
    double getDouble(const std::string &name) const;
    long getInt(const std::string &name) const;
    bool getBool(const std::string &name) const;

    /** Positional (non-flag) arguments, in order. */
    const std::vector<std::string> &positional() const { return positional_; }

  private:
    enum class Kind { String, Double, Int, Bool };

    struct Flag
    {
        Kind kind;
        std::string value;
        std::string defaultValue;
        std::string help;
    };

    const Flag &find(const std::string &name, Kind kind) const;
    void printHelp() const;

    std::string description_;
    std::string program_;
    std::map<std::string, Flag> flags_;
    std::vector<std::string> positional_;
};

} // namespace uvolt

#endif // UVOLT_UTIL_CLI_HH
