/**
 * @file
 * The characterization methodology of the paper, Section II-A.
 *
 * Two campaigns are implemented:
 *
 *  - tryDiscoverRegions(): sweep a rail down from nominal in 10 mV steps to
 *    locate the SAFE / CRITICAL / CRASH boundaries of Fig 1 (Vmin = the
 *    lowest fault-free level, Vcrash = the lowest operable level).
 *
 *  - tryRunCriticalSweep(): the paper's Listing 1 — for each 10 mV step from
 *    Vmin down to Vcrash, repeat 100 times: settle, read all BRAMs back
 *    to the host, and analyze fault rate and location. Reported rates are
 *    medians of the 100 runs; stability statistics (Table II) come from
 *    the same population.
 *
 * Both campaigns are resilient: a watchdog detects DONE-low (real or
 * injected spurious crashes), recovers the board by reconfiguration —
 * soft reset, pattern re-fill, setpoint restore — and resumes from a
 * per-level checkpoint of partial run counts, retrying the interrupted
 * run under its original supply jitter so the completed campaign is
 * bit-identical to an undisturbed one. The checkpoint can also be
 * serialized (harness/checkpoint.hh) to survive host-process death.
 */

#ifndef UVOLT_HARNESS_EXPERIMENT_HH
#define UVOLT_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fpga/fault_domain.hh"
#include "fpga/voltage_rail.hh"
#include "pmbus/board.hh"
#include "util/error.hh"
#include "util/stats.hh"

namespace uvolt::harness
{

/** Initial BRAM content for a campaign. */
struct PatternSpec
{
    enum class Kind
    {
        Fixed,   ///< every row gets the same 16-bit word
        Random,  ///< i.i.d. bits with the given "1" density
    };

    Kind kind = Kind::Fixed;
    std::uint16_t word = 0xFFFF; ///< for Kind::Fixed
    double oneDensity = 0.5;     ///< for Kind::Random
    std::uint64_t seed = 1;      ///< for Kind::Random

    /** The paper's default pattern (highest fault rate). */
    static PatternSpec allOnes() { return {}; }

    static PatternSpec
    fixed(std::uint16_t word)
    {
        PatternSpec spec;
        spec.word = word;
        return spec;
    }

    static PatternSpec
    random(double one_density, std::uint64_t seed)
    {
        PatternSpec spec;
        spec.kind = Kind::Random;
        spec.oneDensity = one_density;
        spec.seed = seed;
        return spec;
    }

    /** Whether a random pattern's density is a probability: in [0, 1]
     *  and not NaN. label() is defined only for well-formed patterns. */
    bool wellFormed() const;

    /** Human-readable label, e.g. "16'hFFFF" or "random-50%". */
    std::string label() const;
};

/** Initialize every BRAM of the board per the pattern. */
void fillPattern(pmbus::Board &board, const PatternSpec &pattern);

/**
 * The random fill behind fillPattern() and fillMemPattern(): fault
 * domain d gets its own stream, Rng(combineSeeds(pattern.seed, d)),
 * drawn in bit-offset order, so its content does not depend on the
 * domain count. fillBernoulliStreams() draws bernoulliLanes domains per
 * pass; @a assign then receives each domain's plane of
 * @a words_per_domain words once, in domain order.
 */
void fillRandomDomains(
    const PatternSpec &pattern, std::uint32_t domains,
    std::size_t words_per_domain,
    const std::function<void(std::uint32_t, fpga::WordSpan)> &assign);

/** Fig 1 result for one rail of one platform. */
struct RegionResult
{
    std::string platform;
    fpga::RailId rail;
    int vnomMv;
    int vminMv;   ///< lowest level with zero observed faults
    int vcrashMv; ///< lowest level at which the design still operates

    /** Guardband fraction: (Vnom - Vmin) / Vnom. */
    double guardband() const;
};

/** Watchdog crash-recovery budget of one measurement run or pass. */
inline constexpr int maxRecoveriesPerRun = 16;

/** What the environment did to a campaign, and what it cost to survive. */
struct ResilienceReport
{
    std::uint64_t crashRecoveries = 0; ///< DONE-low events recovered
    std::uint64_t runsRetried = 0;     ///< measurement runs re-executed
    std::uint64_t linkRetransmits = 0; ///< serial retries during campaign
    std::uint64_t pmbusRetries = 0;    ///< PMBus retries during campaign
    std::uint64_t checkpointResumes = 0; ///< campaigns resumed mid-level
};

/**
 * Locate the SAFE/CRITICAL/CRASH boundaries of a rail by stepping down
 * from nominal. BRAM faults are probed with pattern 0xFFFF; VCCINT
 * faults are probed through the design's self-check path. Spurious
 * DONE-low events are recovered by reconfiguration and the probe is
 * retried under its original jitter.
 *
 * An environment the retry/recovery budget cannot absorb (exhausted
 * link/PMBus/recovery attempts) comes back as an Error instead of
 * terminating, so campaign engines can retry or reschedule the die.
 */
Expected<RegionResult> tryDiscoverRegions(pmbus::Board &board,
                                          fpga::RailId rail);

/** One voltage level of a Listing-1 sweep. */
struct SweepPoint
{
    int vccBramMv = 0;

    /** Fault counts over the run population (whole device). */
    RunningStats runStats;

    /** Raw per-run fault counts (checkpoint + median source). */
    std::vector<double> runCounts;

    /** Median fault count of the runs (what the paper reports). */
    double medianFaults = 0.0;

    /** Median fault count normalized per Mbit. */
    double faultsPerMbit = 0.0;

    /** Deterministic (zero-jitter) per-BRAM fault counts at this level. */
    std::vector<int> perBramFaults;

    /** Power-meter reading of the BRAM rail at this level, watts. */
    double bramPowerW = 0.0;

    /** Share of observed flips that read "1" as "0" (zero-jitter run). */
    double oneToZeroFraction = 1.0;
};

/**
 * Resumable campaign state: everything needed to continue a sweep that
 * was interrupted mid-level — completed points plus the partial run
 * counts of the level in progress and the run-jitter stream cursor.
 * Serialize with harness/checkpoint.hh to survive process death; the
 * sweep only ever appends to @a completedPoints, which is what lets a
 * save append just the new levels to the log on disk.
 */
struct SweepCheckpoint
{
    bool valid = false;      ///< holds resumable state
    std::string platform;    ///< board the campaign ran on
    PatternSpec pattern;     ///< campaign pattern (must match on resume)
    double ambientC = 50.0;
    int runsPerLevel = 0;
    int stepMv = 10;
    int fromMv = 0;          ///< resolved first level of the campaign
    int downToMv = 0;        ///< resolved last level of the campaign
    int currentLevelMv = 0;  ///< level in progress
    std::uint64_t runsStarted = 0; ///< Board run-jitter stream cursor
    std::vector<double> currentRunCounts; ///< finished runs at the level
    std::vector<SweepPoint> completedPoints;

    /**
     * What saveCheckpointFile() last left on disk: the log at @a path,
     * @a bytes long, holds the first @a levels completed points. Empty
     * in a fresh or freshly loaded checkpoint, so its first save writes
     * the whole log.
     */
    struct SavedLog
    {
        std::string path;
        std::size_t levels = 0;
        std::uintmax_t bytes = 0;
    } saved;
};

/** A full Listing-1 campaign. */
struct SweepResult
{
    std::string platform;
    std::string dieId; ///< board serial: tells identical platforms apart
    PatternSpec pattern;
    double ambientC = 50.0;
    int runsPerLevel = 100;
    std::vector<SweepPoint> points; ///< ordered Vmin -> Vcrash

    /** Retry/recovery accounting for the whole campaign. */
    ResilienceReport resilience;

    /** Whether the sweep stopped early on a maxLevels budget. */
    bool truncated = false;

    /** The point at the lowest operable voltage. */
    const SweepPoint &atVcrash() const;

    /** "VC707 (die 1308-6520)", or just the platform when no die id. */
    std::string describe() const;
};

/** Options for runCriticalSweep(). */
struct SweepOptions
{
    PatternSpec pattern = PatternSpec::allOnes();
    int runsPerLevel = 100;  ///< the paper's statistical population
    int stepMv = 10;         ///< regulator DAC granularity
    int fromMv = 0;          ///< 0 = start at the platform's Vmin
    bool collectPerBram = true;

    /**
     * Measure at most this many levels this call (0 = unlimited): a
     * time-slicing budget. A truncated sweep leaves @a checkpoint valid
     * so a later call finishes the campaign.
     */
    int maxLevels = 0;

    /**
     * Optional resumable state. If it holds a valid checkpoint for this
     * board/pattern, the sweep resumes from it (completed levels are not
     * re-measured and the interrupted level keeps its partial runs);
     * either way it is kept current as the campaign progresses.
     */
    SweepCheckpoint *checkpoint = nullptr;

    /** If nonempty, save the checkpoint to the log here after every
     *  level (harness/checkpoint.hh: one appended record per level). */
    std::string checkpointPath;
};

/**
 * The paper's Listing 1: sweep VCCBRAM through the CRITICAL region and
 * measure fault statistics at every step. Leaves the board soft-reset.
 * Completes under injected harsh-environment faults with bit-identical
 * per-level statistics (retries, recovery, and checkpoint resume fully
 * mask every maskable fault class).
 *
 * Exhausted retry/recovery budgets and mismatched checkpoints come
 * back as Errors (recoveryExhausted, linkExhausted, pmbusExhausted,
 * badCheckpoint) instead of terminating the process; the fleet engine
 * retries such jobs from their last checkpoint.
 */
Expected<SweepResult> tryRunCriticalSweep(pmbus::Board &board,
                                          const SweepOptions &options = {});

/**
 * Fatal-on-error form of tryRunCriticalSweep(), kept while the
 * repository benchmark (perfbench/) calls both.
 */
SweepResult runCriticalSweep(pmbus::Board &board,
                             const SweepOptions &options = {});

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_EXPERIMENT_HH
