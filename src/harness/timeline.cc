#include "harness/timeline.hh"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
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

Expected<TimelineRow>
TimelineRow::fromJson(std::string_view text)
{
    auto parsed = json::Value::parse(text);
    if (!parsed.ok())
        return parsed.error();
    const json::Value &root = parsed.value();
    if (!root.isObject() || root.stringOr("schema", "") != schema) {
        return makeError(Errc::corruptCache,
                         "not a {} row (schema = '{}')", schema,
                         root.isObject() ? root.stringOr("schema", "?")
                                         : "<non-object>");
    }

    json::Counts count;

    TimelineRow row;
    row.tool = root.stringOr("tool", "");
    row.runId = root.stringOr("run_id", "");
    row.gitSha = root.stringOr("git_sha", "");
    row.startedAtIso = root.stringOr("started_at", "");
    row.configDigest = root.stringOr("config_digest", "");
    if (const json::Value *machine = root.find("machine");
        machine && machine->isObject()) {
        Machine &m = row.machine;
        m.digest = machine->stringOr("digest", "");
        m.cpuModel = machine->stringOr("cpu_model", m.cpuModel);
        m.cores = count(machine->countOr("cores", 0));
        m.isa = machine->stringOr("isa", m.isa);
        m.compiler = machine->stringOr("compiler", m.compiler);
        m.buildType = machine->stringOr("build_type", m.buildType);
        m.buildFlags = machine->stringOr("build_flags", m.buildFlags);
        m.telemetryEnabled = machine->boolOr("telemetry_enabled", false);
        m.host = machine->stringOr("host", m.host);
        m.os = machine->stringOr("os", m.os);
    }
    row.baseline = root.boolOr("baseline", false);
    row.workers = count(root.countOr("workers", 0));
    row.durationMs = root.numberOr("duration_ms", 0.0);

    if (const json::Value *metrics = root.find("metrics");
        metrics && metrics->isObject()) {
        for (const auto &[name, value] : metrics->members()) {
            if (value.isNumber())
                row.metrics.emplace_back(name, value.number());
        }
    }
    if (count.error())
        return *count.error();
    return row;
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

Expected<std::vector<TimelineRow>>
Timeline::load() const
{
    std::vector<TimelineRow> rows;
    if (!std::filesystem::exists(path_))
        return rows; // no history yet is a valid (empty) timeline

    std::ifstream in(path_);
    if (!in) {
        return makeError(Errc::cacheMiss,
                         "cannot open timeline '{}' for reading", path_);
    }
    std::string line;
    std::size_t number = 0;
    while (std::getline(in, line)) {
        ++number;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        auto row = TimelineRow::fromJson(line);
        if (!row.ok()) {
            return makeError(row.error().code, "{}:{}: {}", path_,
                             number, row.error().message);
        }
        rows.push_back(std::move(row.value()));
    }
    return rows;
}

} // namespace uvolt::harness
