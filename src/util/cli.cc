#include "util/cli.hh"

#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace uvolt
{

CliParser::CliParser(std::string description)
    : description_(std::move(description))
{
}

void
CliParser::addString(const std::string &name, const std::string &default_value,
                     const std::string &help)
{
    flags_[name] = Flag{Kind::String, default_value, default_value, help};
}

void
CliParser::addDouble(const std::string &name, double default_value,
                     const std::string &help)
{
    std::string text = std::to_string(default_value);
    flags_[name] = Flag{Kind::Double, text, text, help};
}

void
CliParser::addInt(const std::string &name, long default_value,
                  const std::string &help)
{
    std::string text = std::to_string(default_value);
    flags_[name] = Flag{Kind::Int, text, text, help};
}

void
CliParser::addBool(const std::string &name, const std::string &help)
{
    flags_[name] = Flag{Kind::Bool, "0", "0", help};
}

Expected<bool>
CliParser::tryParse(int argc, char **argv)
{
    program_ = argc > 0 ? argv[0] : "program";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp();
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        if (auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        auto it = flags_.find(name);
        if (it == flags_.end())
            return makeError(Errc::unknownFlag,
                             "unknown flag --{} (try --help)", name);
        if (it->second.kind == Kind::Bool) {
            it->second.value = has_value ? value : "1";
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc)
                return makeError(Errc::unknownFlag,
                                 "flag --{} expects a value", name);
            value = argv[++i];
        }
        it->second.value = value;
    }
    return true;
}

const CliParser::Flag &
CliParser::find(const std::string &name, Kind kind) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        panic("flag --{} accessed but never declared", name);
    if (it->second.kind != kind)
        panic("flag --{} accessed with the wrong type", name);
    return it->second;
}

std::string
CliParser::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

double
CliParser::getDouble(const std::string &name) const
{
    const Flag &flag = find(name, Kind::Double);
    char *end = nullptr;
    double v = std::strtod(flag.value.c_str(), &end);
    if (end == flag.value.c_str() || *end != '\0')
        fatal("flag --{} expects a number, got '{}'", name, flag.value);
    return v;
}

long
CliParser::getInt(const std::string &name) const
{
    const Flag &flag = find(name, Kind::Int);
    char *end = nullptr;
    long v = std::strtol(flag.value.c_str(), &end, 10);
    if (end == flag.value.c_str() || *end != '\0')
        fatal("flag --{} expects an integer, got '{}'", name, flag.value);
    return v;
}

bool
CliParser::getBool(const std::string &name) const
{
    const Flag &flag = find(name, Kind::Bool);
    return flag.value != "0" && flag.value != "false" && !flag.value.empty();
}

void
CliParser::printHelp() const
{
    std::printf("%s\n\nUsage: %s [flags]\n\nFlags:\n",
                description_.c_str(), program_.c_str());
    for (const auto &[name, flag] : flags_) {
        const char *kind = "";
        switch (flag.kind) {
          case Kind::String: kind = "string"; break;
          case Kind::Double: kind = "float"; break;
          case Kind::Int: kind = "int"; break;
          case Kind::Bool: kind = "bool"; break;
        }
        std::printf("  --%-22s %-7s %s (default: %s)\n", name.c_str(), kind,
                    flag.help.c_str(), flag.defaultValue.c_str());
    }
}

} // namespace uvolt
