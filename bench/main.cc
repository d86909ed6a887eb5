/**
 * @file
 * uvolt_bench: runs the studies of bench/ by name, in order, in one
 * process (`paper` stands for every fig/tab study):
 *
 *   uvolt_bench --list | paper | <study> [flags] [<study> [flags]]...
 *
 * The exit code is the first nonzero one a study returned, or 2 for a
 * malformed command line.
 */

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "study.hh"

using namespace uvolt;

namespace
{

/** Name order is registry order, which --list and `paper` follow. */
std::map<std::string, std::pair<study::RunFn, study::FlagsFn>> &
registry()
{
    static std::map<std::string, std::pair<study::RunFn, study::FlagsFn>>
        studies;
    return studies;
}

/** One study to run, with its slice of argv (its name, then flags). */
struct Invocation
{
    std::string name;
    int argc = 0;
    char **argv = nullptr;
};

int
invoke(const Invocation &call)
{
    const auto [run, flags] = registry().at(call.name);
    CliParser cli("uvolt_bench " + call.name);
    if (flags)
        flags(cli);
    const auto parsed = cli.tryParse(call.argc, call.argv);
    if (!parsed.ok()) {
        std::fprintf(stderr, "uvolt_bench %s: %s\n", call.name.c_str(),
                     parsed.error().message.c_str());
        return 2;
    }
    return parsed.value() ? run(cli) : 0; // false: --help was printed
}

} // namespace

study::Registrar::Registrar(const char *name, RunFn run, FlagsFn flags)
{
    registry().emplace(name, std::pair(run, flags));
}

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--list") {
        for (const auto &entry : registry())
            std::printf("%s\n", entry.first.c_str());
        return 0;
    }
    // A study name opens an invocation and the arguments up to the next
    // name are its flags; `paper` opens one per fig/tab study, flagless.
    std::vector<Invocation> invocations;
    bool takes_flags = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "paper") {
            for (const auto &entry : registry()) {
                if (entry.first.starts_with("fig") ||
                    entry.first.starts_with("tab"))
                    invocations.push_back({entry.first});
            }
            takes_flags = false;
        } else if (registry().contains(arg)) {
            invocations.push_back({arg, 1, argv + i});
            takes_flags = true;
        } else if (takes_flags) {
            ++invocations.back().argc;
        } else {
            std::fprintf(stderr, "uvolt_bench: '%s' is not a study\n",
                         arg.c_str());
            invocations.clear();
            break;
        }
    }
    if (invocations.empty()) {
        std::fprintf(stderr, "usage: uvolt_bench --list | paper | "
                     "<study> [flags] [<study> [flags]]...\n");
        return 2;
    }

    int status = 0;
    for (const Invocation &call : invocations) {
        const int code = invoke(call);
        if (status == 0)
            status = code;
    }
    return status;
}
