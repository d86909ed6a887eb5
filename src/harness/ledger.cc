#include "harness/ledger.hh"

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/format.hh"
#include "util/fsio.hh"
#include "util/json.hh"

namespace uvolt::harness
{

std::string
configDigest(const std::string &canonical)
{
    std::uint64_t hash = 14695981039346656037ull; // FNV offset basis
    for (char c : canonical) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull; // FNV prime
    }
    return strFormat("{:016x}", hash);
}

std::string
buildGitSha()
{
#ifdef UVOLT_GIT_SHA
    return UVOLT_GIT_SHA;
#else
    return "unknown";
#endif
}

std::string
RunManifest::toJson() const
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"" << schema << "\",\n";
    out << "  \"tool\": \"" << json::escaped(tool) << "\",\n";
    out << "  \"run_id\": \"" << json::escaped(runId) << "\",\n";
    out << "  \"git_sha\": \"" << json::escaped(gitSha) << "\",\n";
    out << "  \"started_at\": \"" << json::escaped(startedAtIso)
        << "\",\n";
    out << "  \"config_digest\": \"" << json::escaped(configDigest)
        << "\",\n";
    out << "  \"plan\": {\n";
    out << "    \"runs_per_level\": " << runsPerLevel << ",\n";
    out << "    \"step_mv\": " << stepMv << ",\n";
    out << "    \"collect_per_bram\": "
        << (collectPerBram ? "true" : "false") << ",\n";
    out << "    \"discover_regions\": "
        << (discoverRegions ? "true" : "false") << ",\n";
    out << "    \"max_attempts_per_job\": " << maxAttemptsPerJob
        << ",\n";
    out << "    \"jobs\": [";
    for (std::size_t i = 0; i < jobLabels.size(); ++i) {
        out << (i ? "," : "") << "\n      {\"label\": \""
            << json::escaped(jobLabels[i]) << "\", \"noise_seed\": "
            << (i < noiseSeeds.size() ? noiseSeeds[i] : 0)
            << ", \"backend\": \""
            << json::escaped(i < backends.size() ? backends[i] : "bram")
            << "\"}";
    }
    out << "\n    ]\n  },\n";
    out << "  \"execution\": {\n";
    out << "    \"workers\": " << workers << ",\n";
    out << "    \"duration_ms\": " << strFormat("{:.3f}", durationMs)
        << ",\n";
    out << "    \"job_retries\": " << jobRetries << ",\n";
    out << "    \"crash_recoveries\": " << crashRecoveries << ",\n";
    out << "    \"checkpoint_resumes\": " << checkpointResumes << "\n";
    out << "  },\n";
    out << "  \"dies\": [";
    for (std::size_t i = 0; i < dieRates.size(); ++i) {
        out << (i ? "," : "") << "\n    {\"platform\": \""
            << json::escaped(dieRates[i].first)
            << "\", \"faults_per_mbit_at_vcrash\": "
            << strFormat("{:.3f}", dieRates[i].second) << "}";
    }
    out << "\n  ],\n";
    out << "  \"artifacts\": [";
    for (std::size_t i = 0; i < artifacts.size(); ++i) {
        out << (i ? "," : "") << "\n    \""
            << json::escaped(artifacts[i]) << "\"";
    }
    out << "\n  ],\n";
    out << "  \"observability\": {\n";
    out << "    \"trace\": \"" << json::escaped(tracePath) << "\",\n";
    out << "    \"prometheus\": \"" << json::escaped(prometheusPath)
        << "\",\n";
    out << "    \"blackboxes\": [";
    for (std::size_t i = 0; i < blackboxPaths.size(); ++i) {
        out << (i ? "," : "") << "\n      \""
            << json::escaped(blackboxPaths[i]) << "\"";
    }
    out << (blackboxPaths.empty() ? "]" : "\n    ]") << "\n  },\n";
    out << "  \"telemetry\": {";
    bool first = true;
    for (const auto &[name, value] : counters) {
        out << (first ? "" : ",") << "\n    \"" << json::escaped(name)
            << "\": " << value;
        first = false;
    }
    out << "\n  }\n}\n";
    return out.str();
}

Expected<RunManifest>
RunManifest::fromJson(std::string_view text)
{
    auto parsed = json::Value::parse(text);
    if (!parsed.ok())
        return parsed.error();
    const json::Value &root = parsed.value();
    if (!root.isObject() || root.stringOr("schema", "") != schema) {
        return makeError(Errc::corruptCache,
                         "not a {} document (schema = '{}')", schema,
                         root.isObject() ? root.stringOr("schema", "?")
                                         : "<non-object>");
    }

    json::Counts count;
    constexpr std::uint64_t intMax = std::numeric_limits<int>::max();

    RunManifest manifest;
    manifest.tool = root.stringOr("tool", "");
    manifest.runId = root.stringOr("run_id", "");
    manifest.gitSha = root.stringOr("git_sha", "");
    manifest.startedAtIso = root.stringOr("started_at", "");
    manifest.configDigest = root.stringOr("config_digest", "");

    if (const json::Value *plan = root.find("plan");
        plan && plan->isObject()) {
        manifest.runsPerLevel = static_cast<int>(
            count(plan->countOr("runs_per_level", 0, intMax)));
        manifest.stepMv =
            static_cast<int>(count(plan->countOr("step_mv", 0, intMax)));
        manifest.collectPerBram = plan->boolOr("collect_per_bram", true);
        manifest.discoverRegions =
            plan->boolOr("discover_regions", false);
        manifest.maxAttemptsPerJob = static_cast<int>(
            count(plan->countOr("max_attempts_per_job", 0, intMax)));
        if (const json::Value *jobs = plan->find("jobs");
            jobs && jobs->isArray()) {
            for (const json::Value &job : jobs->items()) {
                if (!job.isObject())
                    continue;
                manifest.jobLabels.push_back(job.stringOr("label", ""));
                manifest.noiseSeeds.push_back(
                    count(job.countOr("noise_seed", 0)));
                manifest.backends.push_back(
                    job.stringOr("backend", "bram"));
            }
        }
    }

    if (const json::Value *execution = root.find("execution");
        execution && execution->isObject()) {
        manifest.workers = count(execution->countOr("workers", 0));
        manifest.durationMs = execution->numberOr("duration_ms", 0.0);
        manifest.jobRetries = count(execution->countOr("job_retries", 0));
        manifest.crashRecoveries =
            count(execution->countOr("crash_recoveries", 0));
        manifest.checkpointResumes =
            count(execution->countOr("checkpoint_resumes", 0));
    }

    if (const json::Value *dies = root.find("dies");
        dies && dies->isArray()) {
        for (const json::Value &die : dies->items()) {
            if (!die.isObject())
                continue;
            manifest.dieRates.emplace_back(
                die.stringOr("platform", ""),
                die.numberOr("faults_per_mbit_at_vcrash", 0.0));
        }
    }

    if (const json::Value *artifacts = root.find("artifacts");
        artifacts && artifacts->isArray()) {
        for (const json::Value &artifact : artifacts->items()) {
            if (artifact.isString())
                manifest.artifacts.push_back(artifact.string());
        }
    }

    if (const json::Value *obs = root.find("observability");
        obs && obs->isObject()) {
        manifest.tracePath = obs->stringOr("trace", "");
        manifest.prometheusPath = obs->stringOr("prometheus", "");
        if (const json::Value *boxes = obs->find("blackboxes");
            boxes && boxes->isArray()) {
            for (const json::Value &box : boxes->items()) {
                if (box.isString())
                    manifest.blackboxPaths.push_back(box.string());
            }
        }
    }

    if (const json::Value *telemetry = root.find("telemetry");
        telemetry && telemetry->isObject()) {
        for (const auto &[name, value] : telemetry->members()) {
            if (value.isNumber())
                manifest.counters.emplace_back(name,
                                               count(value.count()));
        }
    }
    if (count.error())
        return *count.error();
    return manifest;
}

Expected<RunManifest>
RunManifest::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        return makeError(Errc::cacheMiss,
                         "cannot open manifest '{}' for reading", path);
    }
    std::ostringstream content;
    content << in.rdbuf();
    auto manifest = fromJson(content.str());
    if (!manifest.ok()) {
        return makeError(manifest.error().code, "{}: {}", path,
                         manifest.error().message);
    }
    return manifest;
}

std::string
Ledger::defaultDirectory()
{
    if (const char *dir = std::getenv("UVOLT_LEDGER_DIR"))
        return dir;
    return "results/ledger";
}

Ledger::Ledger(std::string directory) : directory_(std::move(directory))
{
}

std::string
Ledger::latestPath() const
{
    return directory_ + "/run_manifest.json";
}

Expected<void>
Ledger::record(const RunManifest &manifest) const
{
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    const std::string document = manifest.toJson();

    // Crash-atomic: a spurious crash mid-record must never leave a
    // truncated manifest that a later RunManifest::load() chokes on.
    if (auto latest = writeFileAtomic(latestPath(), document);
        !latest.ok())
        return latest;
    if (!manifest.runId.empty()) {
        if (auto history = writeFileAtomic(
                strFormat("{}/{}.json", directory_, manifest.runId),
                document);
            !history.ok())
            return history;
    }
    return {};
}

} // namespace uvolt::harness
