/**
 * @file
 * Perf timeline: the repo's one perf record, one appended row per run.
 *
 * Every bench/fleet/serve run appends one schema-versioned
 * "uvolt-timeline-v2" JSON line (git SHA, config digest, the machine
 * and build it ran on, per-metric values) to results/timeline.jsonl.
 * scripts/check_perf.py is the one gate over that history: the newest
 * row of each tool is held to the tool's committed baseline row
 * (bench/timeline_seed.jsonl) with per-metric tolerance, and to its own
 * history with robust-z (step changes) and EWMA (monotonic creep)
 * tests. The history test only compares rows
 * whose machine digests match: like fault rates, which the paper only
 * compares on one die, perf numbers from two machines or two builds
 * are different experiments.
 *
 * Appends go through util/fsio's appendFileRecord — a single O_APPEND
 * write per row — so parallel runs stamping the same timeline (a CI
 * host running bench legs concurrently) interleave whole lines, never
 * torn ones. Rows from different tools coexist in one file; a metric's
 * history is keyed (tool, metric name), so ext_serve's p99 never mixes
 * with bench_all's.
 */

#ifndef UVOLT_HARNESS_TIMELINE_HH
#define UVOLT_HARNESS_TIMELINE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace uvolt::harness
{

/**
 * The machine and build a row was measured on. Host and OS are
 * provenance only; every other field feeds the digest, and two rows
 * are comparable only when their digests match. Fields a row never
 * recorded read "unknown" (cores: 0).
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

/** One run's worth of gate-able numbers. */
struct TimelineRow
{
    /** Schema tag every reader checks first. */
    static constexpr const char *schema = "uvolt-timeline-v2";

    std::string tool;         ///< "bench_all", "ext_serve", ...
    std::string runId;        ///< unique per row (digest + stamp)
    std::string gitSha;       ///< build provenance
    std::string startedAtIso; ///< wall-clock UTC, ISO 8601
    std::string configDigest; ///< FNV-1a over the canonical config
    Machine machine;
    /** A committed floor the tool's newest row is held to. */
    bool baseline = false;
    std::uint64_t workers = 0;
    double durationMs = 0.0;

    /**
     * Metric name -> value (ns, ms, ratios — the name says which). A
     * run with telemetry on adds "<frame>.self_ms" for every frame of
     * its folded span profile, so the history gate covers each layer.
     * Keys a row does not know (a legacy "top_frames") are ignored.
     */
    std::vector<std::pair<std::string, double>> metrics;

    /**
     * A row for a run of @a tool with every header field filled: git
     * SHA, started-at (now), the digest of @a canonical_config, a run
     * id, and this process's machine.
     */
    static TimelineRow start(std::string tool,
                             const std::string &canonical_config);

    /** Serialize as one JSON line (no interior newlines). */
    std::string toJsonLine() const;

    /**
     * Parse one timeline line (schema checked). A negative, non-finite
     * or out-of-range integer field is Errc::corruptCache. Machine keys
     * the struct does not carry (a legacy "telemetry_compiled_in") are
     * ignored.
     */
    static Expected<TimelineRow> fromJson(std::string_view text);
};

/** Wall-clock UTC "YYYY-MM-DDTHH:MM:SSZ" for row provenance. */
std::string nowIso8601();

/** The append-only run history. */
class Timeline
{
  public:
    /** $UVOLT_TIMELINE, or "results/timeline.jsonl" when unset. */
    static std::string defaultPath();

    explicit Timeline(std::string path = defaultPath());

    /**
     * Append @a row as one line. Concurrent-writer safe (single
     * O_APPEND write). I/O failure comes back as an Error so runs in
     * read-only checkouts keep working.
     */
    Expected<void> append(const TimelineRow &row) const;

    /**
     * Append @a row to the timeline at @a path and say so on stdout;
     * an empty path appends nothing (the binaries' --timeline "").
     */
    static void record(const std::string &path, const TimelineRow &row);

    /**
     * Parse every row in the file, oldest first. Blank lines are
     * skipped; a malformed line is an error (a torn append would be a
     * bug worth failing loudly on, not skipping). A missing file loads
     * as an empty history.
     */
    Expected<std::vector<TimelineRow>> load() const;

  private:
    std::string path_;
};

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_TIMELINE_HH
