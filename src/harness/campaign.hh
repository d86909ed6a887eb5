/**
 * @file
 * The one-stop front door of the harness: a fluent builder that turns
 * "which dies, which patterns, which temperatures, how many runs" into
 * a fleet campaign, without touching boards, sweeps, checkpoints, or
 * caches directly.
 *
 *     auto result = Campaign::onPlatform("VC707")
 *                       .withPattern(PatternSpec::allOnes())
 *                       .sweep(100)
 *                       .run(pool);
 *
 * Everything the builder produces goes through the same FleetEngine as
 * hand-wired plans, so a Campaign run is bit-identical to the explicit
 * multi-step wiring (construct Board, tryDiscoverRegions,
 * tryRunCriticalSweep) it replaces; that wiring stays public for
 * callers that drive one board step by step.
 *
 * Platform names are resolved through the mem:: catalog, so a campaign
 * can mix memory technologies in one fleet: BRAM dies (fpga platform
 * catalog), HBM stacks (mem::hbmCatalog), and MoRS-SRAM chips
 * (mem::sramCatalog) are all valid `onDevices` entries. Non-BRAM
 * jobs run the backend sweep (mem::runMemSweep) instead of the board
 * path; noise injection and region discovery are BRAM-only, and a
 * run that asks for either on another technology fails with
 * Errc::invalidRequest.
 */

#ifndef UVOLT_HARNESS_CAMPAIGN_HH
#define UVOLT_HARNESS_CAMPAIGN_HH

#include <optional>
#include <string>
#include <vector>

#include "harness/fleet.hh"

namespace uvolt::harness
{

/** Fluent builder of fleet campaigns. */
class Campaign
{
  public:
    /** Start a campaign on one die. */
    static Campaign onPlatform(std::string platform);

    /**
     * Start a campaign across several dies (die-to-die studies).
     * Entries may name any catalogued memory device — BRAM platforms,
     * HBM stacks, or MoRS-SRAM chips — and one fleet may mix them.
     */
    static Campaign onDevices(std::vector<std::string> devices);

    /** Add one data pattern (default when none added: 0xFFFF). */
    Campaign &withPattern(const PatternSpec &pattern);

    /** Add several data patterns (the Fig 4 pattern study). */
    Campaign &withPatterns(const std::vector<PatternSpec> &patterns);

    /** Add one ambient temperature, degC (default: 50). */
    Campaign &atTemperature(double temp_c);

    /** Add several ambient temperatures (the Fig 8 ITD study). */
    Campaign &atTemperatures(const std::vector<double> &temps_c);

    /** Put every board of the fleet in this harsh environment. */
    Campaign &withNoise(const pmbus::NoiseConfig &noise);

    /** Listing-1 statistical population per voltage level. */
    Campaign &sweep(int runs_per_level);

    /** Voltage step, mV (default: the paper's 10 mV). */
    Campaign &stepMv(int step_mv);

    /** Collect per-BRAM fault maps (default on; off is faster). */
    Campaign &perBramMaps(bool collect);

    /** Also locate the Fig-1 voltage regions of both rails per job. */
    Campaign &discoverRegions();

    /** Persist per-job checkpoints here; re-running resumes the fleet. */
    Campaign &checkpointUnder(std::string directory);

    /** Publish each die's merged FVM into this cache. */
    Campaign &cacheInto(FvmCache &cache);

    /**
     * Append each successful run's "uvolt-run-v1" record to
     * <directory>/runs.jsonl (default: defaultLedgerDir(), i.e.
     * results/ledger or $UVOLT_LEDGER_DIR). Pass "" to disable the
     * ledger — hot loops that run thousands of tiny campaigns
     * (benchmarks) want that.
     */
    Campaign &ledgerUnder(std::string directory);

    /** The plan this builder describes (for inspection or hand tuning). */
    FleetPlan plan() const;

    /** Run serially on the calling thread. */
    Expected<FleetResult> run() const;

    /** Run on a worker pool; bit-identical to the serial run. */
    Expected<FleetResult> run(ThreadPool &pool) const;

  private:
    Campaign(); ///< defaults the ledger to defaultLedgerDir()

    std::vector<std::string> platforms_;
    std::vector<PatternSpec> patterns_;
    std::vector<double> temperaturesC_;
    std::optional<pmbus::NoiseConfig> noise_;
    int runsPerLevel_ = 100;
    int stepMv_ = 10;
    bool collectPerBram_ = true;
    bool discoverRegions_ = false;
    FleetOptions options_;
};

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_CAMPAIGN_HH
