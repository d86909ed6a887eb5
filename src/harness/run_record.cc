#include "harness/run_record.hh"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <sys/utsname.h>
#include <thread>

#include "util/format.hh"
#include "util/fsio.hh"
#include "util/json.hh"
#include "util/rng.hh"
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

/** Wall-clock UTC "YYYY-MM-DDTHH:MM:SSZ". */
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

/** `"key": ["a", "b"]` with every string escaped. */
void
writeStrings(std::ostringstream &out, const char *key,
             const std::vector<std::string> &values)
{
    out << ", \"" << key << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? ", \"" : "\"") << json::escaped(values[i]) << "\"";
    out << "]";
}

void
writeFleet(std::ostringstream &out, const RunRecord::Fleet &fleet)
{
    out << ", \"plan\": {\"runs_per_level\": " << fleet.runsPerLevel
        << ", \"step_mv\": " << fleet.stepMv
        << ", \"collect_per_bram\": " << jsonBool(fleet.collectPerBram)
        << ", \"discover_regions\": " << jsonBool(fleet.discoverRegions)
        << ", \"max_attempts_per_job\": " << fleet.maxAttemptsPerJob
        << ", \"jobs\": [";
    for (std::size_t i = 0; i < fleet.jobs.size(); ++i) {
        const RunRecord::Job &job = fleet.jobs[i];
        out << (i ? ", " : "") << "{\"label\": \""
            << json::escaped(job.label)
            << "\", \"noise_seed\": " << job.noiseSeed
            << ", \"backend\": \"" << json::escaped(job.backend) << "\"}";
    }
    out << "]}";
    out << ", \"execution\": {\"job_retries\": " << fleet.jobRetries
        << ", \"crash_recoveries\": " << fleet.crashRecoveries
        << ", \"checkpoint_resumes\": " << fleet.checkpointResumes << "}";
    out << ", \"dies\": [";
    for (std::size_t i = 0; i < fleet.dieRates.size(); ++i) {
        out << (i ? ", " : "") << "{\"platform\": \""
            << json::escaped(fleet.dieRates[i].first)
            << "\", \"faults_per_mbit_at_vcrash\": "
            << strFormat("{:.3f}", fleet.dieRates[i].second) << "}";
    }
    out << "]";
}

} // namespace

std::string
configDigest(const std::string &canonical)
{
    return strFormat("{:016x}", fnv1a64(canonical));
}

std::string
defaultLedgerDir()
{
    if (const char *dir = std::getenv("UVOLT_LEDGER_DIR"))
        return dir;
    return "results/ledger";
}

std::string
defaultTimelinePath()
{
    if (const char *path = std::getenv("UVOLT_TIMELINE"))
        return path;
    return "results/timeline.jsonl";
}

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

RunRecord
RunRecord::start(std::string tool, const std::string &canonical_config)
{
    RunRecord record;
    record.tool = std::move(tool);
#ifdef UVOLT_GIT_SHA
    record.gitSha = UVOLT_GIT_SHA;
#else
    record.gitSha = "unknown";
#endif
    record.startedAtIso = nowIso8601();
    record.configDigest = harness::configDigest(canonical_config);
    record.runId = strFormat(
        "{}-{}", record.configDigest.substr(0, 8),
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    record.machine = Machine::current();
    return record;
}

std::string
RunRecord::toJsonLine() const
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
    if (fleet)
        writeFleet(out, *fleet);
    writeStrings(out, "artifacts", artifacts);
    out << ", \"observability\": {\"trace\": \""
        << json::escaped(tracePath) << "\", \"prometheus\": \""
        << json::escaped(prometheusPath) << "\"";
    writeStrings(out, "blackboxes", blackboxPaths);
    out << "}, \"telemetry\": {";
    bool first = true;
    for (const auto &[name, value] : counters) {
        out << (first ? "" : ", ") << "\"" << json::escaped(name)
            << "\": " << value;
        first = false;
    }
    out << "}, \"metrics\": {";
    first = true;
    for (const auto &[name, value] : metrics) {
        out << (first ? "" : ", ") << "\"" << json::escaped(name)
            << "\": " << strFormat("{:.6f}", value);
        first = false;
    }
    out << "}}";
    return out.str();
}

Expected<void>
RunRecord::append(const std::string &path) const
{
    return appendFileRecord(path, toJsonLine());
}

} // namespace uvolt::harness
