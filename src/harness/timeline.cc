#include "harness/timeline.hh"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <sys/utsname.h>
#include <thread>

#include "harness/ledger.hh"
#include "util/format.hh"
#include "util/fsio.hh"
#include "util/json.hh"
#include "util/telemetry.hh"

namespace uvolt::harness
{

namespace
{

/** The "model name" line of /proc/cpuinfo, or "unknown". */
std::string
readCpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos &&
            colon + 2 <= line.size())
            return line.substr(colon + 2);
    }
    return "unknown";
}

/** The ISA extensions this translation unit was compiled for. */
std::string
targetIsa()
{
    std::string isa;
#ifdef __AVX2__
    isa += " avx2";
#endif
#ifdef __AVX512F__
    isa += " avx512f";
#endif
#ifdef __FMA__
    isa += " fma";
#endif
    return isa.empty() ? "none" : isa.substr(1);
}

const char *
jsonBool(bool value)
{
    return value ? "true" : "false";
}

} // namespace

Machine
Machine::current()
{
    static const std::string cpu = readCpuModel();
    char host[256] = "unknown";
    (void)gethostname(host, sizeof(host) - 1);
    struct utsname uts = {};
    (void)uname(&uts);

    Machine machine;
    machine.host = host;
    machine.os = strFormat("{} {}", uts.sysname, uts.release);
    machine.cpuModel = cpu;
    machine.cores = std::thread::hardware_concurrency();
    machine.isa = targetIsa();
    machine.compiler = __VERSION__;
#ifdef UVOLT_BUILD_TYPE
    machine.buildType = UVOLT_BUILD_TYPE;
    machine.buildFlags = UVOLT_BUILD_FLAGS;
#endif
    machine.telemetryEnabled = telemetry::Telemetry::enabled();
    machine.digest = machine.fingerprint();
    return machine;
}

std::string
Machine::fingerprint() const
{
    return configDigest(strFormat(
        "cpu={};cores={};isa={};compiler={};build_type={};"
        "build_flags={};telemetry={}",
        cpuModel, cores, isa, compiler, buildType, buildFlags,
        jsonBool(telemetryEnabled)));
}

TimelineRow
TimelineRow::start(std::string tool, const std::string &canonical_config)
{
    TimelineRow row;
    row.tool = std::move(tool);
    row.gitSha = buildGitSha();
    row.startedAtIso = nowIso8601();
    row.configDigest = harness::configDigest(canonical_config);
    row.runId = strFormat("{}-{}", row.configDigest.substr(0, 8),
                          row.startedAtIso);
    row.machine = Machine::current();
    return row;
}

std::string
TimelineRow::toJsonLine() const
{
    std::ostringstream out;
    out << "{\"schema\": \"" << schema << "\"";
    out << ", \"tool\": \"" << json::escaped(tool) << "\"";
    out << ", \"run_id\": \"" << json::escaped(runId) << "\"";
    out << ", \"git_sha\": \"" << json::escaped(gitSha) << "\"";
    out << ", \"started_at\": \"" << json::escaped(startedAtIso)
        << "\"";
    out << ", \"config_digest\": \"" << json::escaped(configDigest)
        << "\"";
    out << ", \"machine\": {\"digest\": \""
        << json::escaped(machine.digest) << "\", \"cpu_model\": \""
        << json::escaped(machine.cpuModel)
        << "\", \"cores\": " << machine.cores << ", \"isa\": \""
        << json::escaped(machine.isa) << "\", \"compiler\": \""
        << json::escaped(machine.compiler) << "\", \"build_type\": \""
        << json::escaped(machine.buildType)
        << "\", \"build_flags\": \""
        << json::escaped(machine.buildFlags)
        << "\", \"telemetry_enabled\": "
        << jsonBool(machine.telemetryEnabled) << ", \"host\": \""
        << json::escaped(machine.host) << "\", \"os\": \""
        << json::escaped(machine.os) << "\"}";
    out << ", \"baseline\": " << jsonBool(baseline);
    out << ", \"workers\": " << workers;
    out << ", \"duration_ms\": " << strFormat("{:.3f}", durationMs);
    out << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        out << (first ? "" : ", ") << "\"" << json::escaped(name)
            << "\": " << strFormat("{:.6f}", value);
        first = false;
    }
    out << "}}";
    return out.str();
}

std::string
nowIso8601()
{
    const std::time_t now = std::chrono::system_clock::to_time_t(
        std::chrono::system_clock::now());
    std::tm utc{};
    gmtime_r(&now, &utc);
    char buffer[32];
    std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &utc);
    return buffer;
}

std::string
Timeline::defaultPath()
{
    if (const char *path = std::getenv("UVOLT_TIMELINE"))
        return path;
    return "results/timeline.jsonl";
}

Timeline::Timeline(std::string path) : path_(std::move(path)) {}

Expected<void>
Timeline::append(const TimelineRow &row) const
{
    return appendFileRecord(path_, row.toJsonLine());
}

void
Timeline::record(const std::string &path, const TimelineRow &row)
{
    if (path.empty())
        return;
    if (Timeline(path).append(row).ok())
        std::printf("timeline: appended run %s -> %s\n",
                    row.runId.c_str(), path.c_str());
}

} // namespace uvolt::harness
