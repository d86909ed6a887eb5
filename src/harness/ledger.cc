#include "harness/ledger.hh"

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
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
    // truncated manifest in the archive.
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
