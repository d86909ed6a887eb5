/**
 * @file
 * The run record: one JSON line that says which build, machine, plan
 * and seeds produced a run, and what it measured.
 *
 * The paper's claims are statistics over long characterization
 * campaigns; comparing two campaigns (across machines, branches, or
 * months) is only meaningful when each run's exact configuration,
 * seeds, concurrency, cost, and telemetry are archived next to its
 * results. MoRS (arXiv:2110.05855) builds its SRAM fault models from
 * exactly such archived characterization runs.
 *
 * Every run appends one schema-versioned "uvolt-run-v1" line through
 * util/fsio's appendFileRecord, a single O_APPEND write, so parallel
 * runs stamping one file interleave whole lines, never torn ones:
 *
 *   - a FleetEngine run with a ledger directory configured (the
 *     Campaign facade turns this on by default, under results/ledger/
 *     or $UVOLT_LEDGER_DIR) appends to <dir>/runs.jsonl, with its plan
 *     (jobs, noise seeds, backends, sweep shape), execution counters
 *     and per-die headline rates;
 *   - bench_all, ext_serve, ext_fleet and ext_membackends append to
 *     results/timeline.jsonl ($UVOLT_TIMELINE, or --timeline), with
 *     their metrics.
 *
 * The library writes records and reads none back. scripts/check_perf.py
 * is their reader and the perf gate: the newest record of each tool is
 * held to the tool's committed baseline record
 * (bench/timeline_seed.jsonl) and to its own history. The history test
 * only compares records whose machine digests match: like fault rates,
 * which the paper only compares on one die, perf numbers from two
 * machines or two builds are different experiments.
 */

#ifndef UVOLT_HARNESS_RUN_RECORD_HH
#define UVOLT_HARNESS_RUN_RECORD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace uvolt::harness
{

/**
 * The machine and build a run was measured on. Host and OS are
 * provenance only; every other field feeds the digest, and two records
 * are comparable only when their digests match. Fields the process
 * cannot determine stay "unknown" (cores: 0).
 */
struct Machine
{
    std::string host = "unknown";
    std::string os = "unknown";
    std::string cpuModel = "unknown";
    std::uint64_t cores = 0; ///< logical cores
    std::string isa = "unknown";       ///< "avx2 avx512f fma", "none"
    std::string compiler = "unknown";  ///< __VERSION__
    std::string buildType = "unknown"; ///< CMAKE_BUILD_TYPE
    std::string buildFlags = "unknown"; ///< compile flags at configure
    bool telemetryEnabled = false;
    std::string digest; ///< configDigest over the fields above

    /** This process now: its CPU, its build, its telemetry state. */
    static Machine current();

    /** configDigest over every field but host, os and digest. */
    std::string fingerprint() const;

    bool operator==(const Machine &) const = default;
};

/** One run, as one "uvolt-run-v1" JSON line. */
struct RunRecord
{
    /** Schema tag, the record's first member. */
    static constexpr const char *schema = "uvolt-run-v1";

    /** One FleetEngine job of the plan. */
    struct Job
    {
        std::string label;
        std::uint64_t noiseSeed = 0;  ///< 0 = quiet
        std::string backend = "bram"; ///< "bram", "hbm" or "sram"
    };

    /** The plan and execution of a FleetEngine run. */
    struct Fleet
    {
        int runsPerLevel = 0;
        int stepMv = 0;
        bool collectPerBram = true;
        bool discoverRegions = false;
        int maxAttemptsPerJob = 0;
        std::vector<Job> jobs; ///< plan order

        std::uint64_t jobRetries = 0;
        std::uint64_t crashRecoveries = 0;
        std::uint64_t checkpointResumes = 0;

        /** Headline result per die: (platform, faults/Mbit at Vcrash). */
        std::vector<std::pair<std::string, double>> dieRates;
    };

    std::string tool;         ///< "FleetEngine", "bench_all", ...
    std::string runId;        ///< "<digest8>-<epoch_ms>"
    std::string gitSha;       ///< build provenance
    std::string startedAtIso; ///< wall-clock UTC, ISO 8601
    std::string configDigest; ///< FNV-1a over the canonical config
    Machine machine;
    /** A committed floor the tool's newest record is held to. */
    bool baseline = false;
    std::uint64_t workers = 0; ///< pool size (0 = inline serial)
    double durationMs = 0.0;

    /** Set when a FleetEngine produced the run. */
    std::optional<Fleet> fleet;

    /** Output/scratch locations tied to this run (may be empty). */
    std::vector<std::string> artifacts;

    // Where to look when this run needs to be inspected, not just
    // reproduced. Empty when telemetry was off.
    std::string tracePath;      ///< Chrome trace JSON of the run
    std::string prometheusPath; ///< last metrics exposition snapshot
    std::vector<std::string> blackboxPaths; ///< black-box dumps

    /** Telemetry counters at completion. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /**
     * Metric name -> value (ns, ms, ratios — the name says which). A
     * run with telemetry on adds "<frame>.self_ms" for every frame of
     * its folded span profile, so the history gate covers each layer.
     */
    std::vector<std::pair<std::string, double>> metrics;

    /**
     * A record of a run of @a tool with every header field filled: git
     * SHA, started-at (now), the digest of @a canonical_config, the run
     * id, and this process's machine.
     */
    static RunRecord start(std::string tool,
                           const std::string &canonical_config);

    /** Serialize as one JSON line (no interior newlines). */
    std::string toJsonLine() const;

    /**
     * Append this record as one line to the file at @a path. I/O
     * failure comes back as an Error so runs in read-only checkouts
     * keep working.
     */
    Expected<void> append(const std::string &path) const;
};

/** FNV-1a 64-bit over a canonical description, as 16 hex digits. */
std::string configDigest(const std::string &canonical);

/** $UVOLT_LEDGER_DIR, or "results/ledger" when unset. */
std::string defaultLedgerDir();

/** $UVOLT_TIMELINE, or "results/timeline.jsonl" when unset. */
std::string defaultTimelinePath();

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_RUN_RECORD_HH
