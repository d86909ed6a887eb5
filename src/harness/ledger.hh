/**
 * @file
 * Run-provenance ledger: every campaign leaves a diffable manifest.
 *
 * The paper's claims are statistics over long characterization
 * campaigns; comparing two campaigns (across machines, branches, or
 * months) is only meaningful when each run's exact configuration,
 * seeds, concurrency, cost, and telemetry are archived next to its
 * results. MoRS (arXiv:2110.05855) builds its SRAM fault models from
 * exactly such archived characterization runs; this ledger gives the
 * fleet engine the same discipline automatically.
 *
 * Every FleetEngine run with a ledger directory configured (the
 * Campaign facade turns this on by default, under results/ledger/ or
 * $UVOLT_LEDGER_DIR) writes:
 *
 *   - <dir>/run_manifest.json — the latest run, fixed name so scripts
 *     and the acceptance flow always find the most recent manifest;
 *   - <dir>/<run_id>.json — the same document under its unique id
 *     (config digest + wall-clock stamp), the append-only history.
 *
 * The manifest is the schema-versioned "uvolt-run-manifest-v1" JSON
 * document: config digest, per-job seeds, worker count, duration, a
 * telemetry counter snapshot, artifact paths, and per-die headline
 * rates. The library writes the archive and reads none of it back:
 * the manifest is a diffable record for people and scripts, and a
 * future reproduce path brings the one reader it needs. The manifest
 * is provenance, not a perf record: timings are gated from the perf
 * timeline (harness/timeline.hh).
 */

#ifndef UVOLT_HARNESS_LEDGER_HH
#define UVOLT_HARNESS_LEDGER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace uvolt::harness
{

/** One archived campaign run. */
struct RunManifest
{
    /** Schema tag, the document's first member. */
    static constexpr const char *schema = "uvolt-run-manifest-v1";

    std::string tool = "FleetEngine"; ///< what produced the run
    std::string runId;          ///< "<digest8>-<epoch_ms>" (unique)
    std::string gitSha;         ///< build provenance
    std::string startedAtIso;   ///< wall-clock UTC, ISO 8601
    std::string configDigest;   ///< FNV-1a over the canonical plan

    // The plan, summarized.
    std::vector<std::string> jobLabels;   ///< plan order
    std::vector<std::uint64_t> noiseSeeds; ///< per job; 0 = quiet
    /** Per-job memory technology tag ("bram", "hbm", "sram"); parallel
     *  to jobLabels. A job with no entry is written as "bram". */
    std::vector<std::string> backends;
    int runsPerLevel = 0;
    int stepMv = 0;
    bool collectPerBram = true;
    bool discoverRegions = false;
    int maxAttemptsPerJob = 0;

    // The execution.
    std::uint64_t workers = 0; ///< pool size (0 = inline serial)
    double durationMs = 0.0;
    std::uint64_t jobRetries = 0;
    std::uint64_t crashRecoveries = 0;
    std::uint64_t checkpointResumes = 0;

    /** Headline result per die: (platform, faults/Mbit at Vcrash). */
    std::vector<std::pair<std::string, double>> dieRates;

    /** Output/scratch locations tied to this run (may be empty). */
    std::vector<std::string> artifacts;

    // Observability artifacts: where to look when this run needs to be
    // inspected, not just reproduced. Empty when telemetry was off.
    std::string tracePath;      ///< Chrome trace JSON of the run
    std::string prometheusPath; ///< last metrics exposition snapshot
    std::vector<std::string> blackboxPaths; ///< flight-recorder dumps

    /** Telemetry counters at completion (nonzero entries only). */
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /** Serialize as the "uvolt-run-manifest-v1" document. */
    std::string toJson() const;
};

/** FNV-1a 64-bit over a canonical description, as 16 hex digits. */
std::string configDigest(const std::string &canonical);

/** The git SHA baked in at configure time ("unknown" outside git). */
std::string buildGitSha();

/** The append-only manifest archive. */
class Ledger
{
  public:
    /** $UVOLT_LEDGER_DIR, or "results/ledger" when unset. */
    static std::string defaultDirectory();

    explicit Ledger(std::string directory = defaultDirectory());

    const std::string &directory() const { return directory_; }

    /**
     * Write @a manifest as both run_manifest.json (latest) and
     * <run_id>.json (history). I/O failure comes back as an Error so
     * campaigns in read-only environments keep running.
     */
    Expected<void> record(const RunManifest &manifest) const;

    /** Path of the latest-run manifest in this ledger. */
    std::string latestPath() const;

  private:
    std::string directory_;
};

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_LEDGER_HH
