/**
 * @file
 * Parallel fleet campaigns: many boards, patterns, and temperatures in
 * one schedulable unit.
 *
 * Every headline result of the paper is a *cross product*: the
 * guardband study sweeps four boards (Fig 1), the pattern study five
 * data patterns (Fig 4), the ITD study four temperatures (Fig 8), the
 * die-to-die comparison two identical KC705 samples (Fig 7). The fleet
 * engine schedules such a cross product as independent jobs on a
 * ThreadPool. Each job builds its own Board around the die's shared
 * immutable ChipFaultModel and draws from that board's own seeded RNG
 * streams, so the campaign's statistics are bit-identical to a serial
 * run regardless of worker count or completion order.
 *
 * The engine composes the resilience layer end to end: per-run crash
 * recovery inside each sweep (the maxRecoveriesPerRun watchdog), up to
 * 3 engine-level attempts of a job whose retry budgets were exhausted,
 * and per-job on-disk checkpoints under a scratch directory so a killed
 * fleet resumes with completed levels intact.
 *
 * The FvmCache implements the "characterize once, place many times"
 * flow the paper describes (the FVM is "extracted as a pre-process
 * stage"): chip maps are cached in memory and on disk keyed by
 * platform + die serial + characterization shape, with single-flight
 * loading so concurrent requests for the same die characterize once.
 */

#ifndef UVOLT_HARNESS_FLEET_HH
#define UVOLT_HARNESS_FLEET_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "mem/catalog.hh"
#include "mem/sweep.hh"
#include "pmbus/fault_injector.hh"
#include "util/error.hh"
#include "util/thread_pool.hh"

namespace uvolt::harness
{

/** One cell of a fleet campaign's cross product. */
struct FleetJob
{
    std::string platform;   ///< catalog name; identifies the die
    PatternSpec pattern = PatternSpec::allOnes();
    double ambientC = 50.0;

    /** Optional per-job harsh environment (masked by the retry layer). */
    std::optional<pmbus::NoiseConfig> noise;

    /** Filesystem-safe identity, e.g. "VC707-p16_hFFFF-t50"; names the
     *  job's checkpoint file and its slot in reports. */
    std::string label() const;
};

/** The cross product {dies} x {patterns} x {temperatures}. */
struct FleetPlan
{
    std::vector<FleetJob> jobs;

    // Shared Listing-1 shape of every job in the fleet.
    int runsPerLevel = 100;
    int stepMv = 10;
    bool collectPerBram = true;

    /** Also locate Fig-1 voltage regions (both rails) before each sweep. */
    bool discoverRegions = false;

    /**
     * Expand the cross product in deterministic order: platforms
     * outermost, then patterns, then temperatures.
     */
    static FleetPlan
    crossProduct(const std::vector<std::string> &platforms,
                 const std::vector<PatternSpec> &patterns,
                 const std::vector<double> &temperatures_c);
};

/** One finished cell of the fleet. */
struct FleetJobOutcome
{
    FleetJob job;
    SweepResult sweep;
    std::optional<RegionResult> bramRegions; ///< when plan.discoverRegions
    std::optional<RegionResult> intRegions;  ///< when plan.discoverRegions
    int attempts = 1;     ///< engine-level tries this job consumed
    bool resumed = false; ///< continued from an on-disk checkpoint
};

/**
 * Program a memory device per a campaign pattern: the backend-generic
 * counterpart of fillPattern(Board&, ...). Fixed patterns fill every
 * lane; random patterns take fillRandomDomains(), one seeded stream per
 * fault domain, as the Board path does per BRAM.
 */
void fillMemPattern(mem::MemoryDevice &device, const PatternSpec &pattern);

/**
 * Adapt a backend sweep into the harness SweepResult shape so fleet
 * aggregation, reports, and the serving tier stay backend-agnostic.
 * perDomainFaults lands in perBramFaults ("fault domain" counts).
 */
SweepResult sweepFromMem(const mem::MemSweepResult &mem_result,
                         const PatternSpec &pattern);

/**
 * Stop/deadline probe of a sliced attempt, run before every sweep
 * slice; an Error ends the attempt with that error.
 */
using SliceCheck = std::function<Expected<void>()>;

/**
 * One characterization attempt of @a job: the single place that maps a
 * device name onto its technology, shared by FleetEngine and the
 * serving tier.
 *
 *  - BRAM: a fresh Board around the die's shared chip model, the job's
 *    noise re-seeded for this attempt (seed + (attempt-1)*1000003: a
 *    retry faces a fresh but reproducible environment), Fig-1 regions
 *    when the plan asks, then the Listing-1 sweep. It resumes from
 *    @a checkpoint_path when that holds a usable checkpoint, flushes it
 *    after every level, and deletes it on success.
 *  - HBM / SRAM: build and program the MemoryDevice and sweep it on the
 *    stateless jitter stream seeded by @a jitter_seed. No Board, no
 *    chip model, no checkpoint I/O; noise or region discovery (both
 *    drive a Board) is Errc::invalidRequest.
 *
 * @param slice_levels sweep levels per slice (0 = one unsliced sweep);
 *        @a at_slice, when set, runs before every slice
 * @return the outcome with attempts = @a attempt
 */
Expected<FleetJobOutcome>
runJobAttempt(const FleetPlan &plan, const FleetJob &job, int attempt,
              std::uint64_t jitter_seed,
              const std::string &checkpoint_path = {},
              int slice_levels = 0, const SliceCheck &at_slice = {});

/** Aggregate view of one die across all its fleet jobs. */
struct DieReport
{
    std::string platform;
    std::string technology = "bram";     ///< technologyName() tag
    std::string dieId;                   ///< board serial number
    std::vector<std::size_t> jobIndices; ///< into FleetResult::jobs
    double faultsPerMbitAtVcrash = 0.0;  ///< reference-pattern rate

    /** Per-BRAM max across the die's sweeps (the union map of Fig 6);
     *  absent when the plan skipped per-BRAM maps. */
    std::optional<Fvm> mergedFvm;
};

/** Everything a fleet campaign produced, in plan order. */
struct FleetResult
{
    std::vector<FleetJobOutcome> jobs; ///< plan order, not finish order
    std::vector<DieReport> dies;       ///< order of first appearance

    /** Summed retry/recovery accounting across the whole fleet. */
    ResilienceReport resilience;

    /** Engine-level job re-runs after exhausted recovery budgets. */
    std::uint64_t jobRetries = 0;

    /**
     * Die-to-die variation: worst/best faultsPerMbitAtVcrash across the
     * fleet's dies (the paper's KC705-A = 4.1 x KC705-B comparison).
     * Zero when fewer than two dies or a fault-free best die.
     */
    double dieToDieRatio() const;

    /** The single sweep of a one-job campaign; fatal() otherwise. */
    const SweepResult &onlySweep() const;

    /** Die report by platform name; fatal() when absent. */
    const DieReport &die(const std::string &platform) const;
};

/** Cache traffic counters. */
struct FvmCacheStats
{
    std::uint64_t memoryHits = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t misses = 0;            ///< characterizations executed
    std::uint64_t corruptFiles = 0;      ///< re-characterized + rewritten
    std::uint64_t singleFlightWaits = 0; ///< callers that joined a peer
};

/**
 * Memory + on-disk cache of per-die Fault Variation Maps.
 *
 * Key: platform + die serial + characterization shape (pattern, runs
 * per level). Disk artifacts are trySaveFvm() files under the cache
 * directory (UVOLT_CACHE_DIR or ./uvolt_model_cache), so a die
 * characterized by any process is reused by every later one. obtain()
 * is single-flight: concurrent requests for one die block on the first
 * caller's characterization instead of repeating it. A corrupt cache
 * file is re-characterized and overwritten (and counted).
 */
class FvmCache
{
  public:
    explicit FvmCache(std::string directory = defaultDirectory());

    /** UVOLT_CACHE_DIR, or ./uvolt_model_cache when unset. */
    static std::string defaultDirectory();

    const std::string &directory() const { return directory_; }

    /** Produce the map on a miss; recoverable failures propagate. */
    using Characterize = std::function<Expected<Fvm>()>;

    /**
     * Filesystem-safe cache key for one die + characterization shape:
     * keyForDevice() of the platform's BRAM traits.
     */
    static std::string keyFor(const fpga::PlatformSpec &spec,
                              const PatternSpec &pattern,
                              int runs_per_level);

    /**
     * Cache key of a memory device. Non-BRAM keys carry the technology
     * tag so an HBM map can never shadow a BRAM map; BRAM devices keep
     * the untagged legacy format (existing caches stay valid).
     */
    static std::string keyForDevice(const mem::DeviceTraits &traits,
                                    const PatternSpec &pattern,
                                    int runs_per_level);

    /**
     * The die's map: from memory, else from disk, else by running
     * @a characterize exactly once (other threads wait and share the
     * result). The returned pointer aliases the in-memory entry.
     */
    Expected<std::shared_ptr<const Fvm>>
    obtain(const fpga::PlatformSpec &spec, const PatternSpec &pattern,
           int runs_per_level, const Characterize &characterize);

    /**
     * Publish an already-measured map (fleet engines feed the cache as
     * a side effect of their sweeps). Overwrites memory + disk. Key
     * and floorplan are supplied by the caller, so any MemoryDevice
     * backend can publish its per-domain map.
     */
    Expected<void> storeKeyed(const std::string &key,
                              const fpga::Floorplan &floorplan,
                              const Fvm &fvm);

    /** Drop the in-memory layer (tests exercise the disk path). */
    void evictMemory();

    FvmCacheStats stats() const;

  private:
    struct Entry
    {
        bool ready = false;   ///< false while the owner characterizes
        std::shared_ptr<const Fvm> fvm;       ///< set when ready & ok
        std::optional<Error> failure;         ///< set when ready & !ok
    };

    std::string directory_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::map<std::string, std::shared_ptr<Entry>> entries_;
    FvmCacheStats stats_;
};

/** Knobs of a fleet run. */
struct FleetOptions
{
    /**
     * Scratch directory for per-job sweep checkpoints ("" = none). A
     * fleet killed mid-run and re-run with the same directory resumes
     * every interrupted job from its last completed level.
     */
    std::string checkpointDir;

    /** When set, each die's merged FVM is published here (keyed by the
     *  die's reference-pattern job) once its sweeps complete. */
    FvmCache *fvmCache = nullptr;

    /**
     * Run-provenance ledger directory ("" = no ledger). A successful
     * run appends one "uvolt-run-v1" record (harness/run_record.hh) to
     * <dir>/runs.jsonl: config digest, machine, plan and noise seeds,
     * worker count, duration, execution counters, per-die rates, and
     * the telemetry counters and black-box dumps the process added
     * during the run. Counters are process-wide, so runs that overlap
     * in one process each count the other's work too. The Campaign
     * facade defaults this to defaultLedgerDir().
     */
    std::string ledgerDir;
};

/** Schedules a FleetPlan on a ThreadPool and aggregates the results. */
class FleetEngine
{
  public:
    explicit FleetEngine(FleetOptions options = {});

    /**
     * Run every job of @a plan on @a pool and wait for completion.
     * Results are assembled in plan order; the first job (in plan
     * order) that failed past every retry reports its error. Bitwise
     * equal to a serial run of the same plan.
     */
    Expected<FleetResult> run(const FleetPlan &plan, ThreadPool &pool);

    /** Serial reference path: same scheduling code, zero workers. */
    Expected<FleetResult> run(const FleetPlan &plan);

  private:
    /**
     * runJobAttempt() up to 3 times: a job whose recovery budget was
     * exhausted (Errc::recoveryExhausted etc.) is re-run from its
     * checkpoint before the fleet reports the error.
     */
    Expected<FleetJobOutcome> runJob(const FleetPlan &plan,
                                     const FleetJob &job) const;

    FleetOptions options_;
};

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_FLEET_HH
