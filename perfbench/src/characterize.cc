/**
 * @file
 * Workload `characterize`: one heterogeneous Listing-1 campaign
 * (BRAM dies, an HBM stack and a MoRS-SRAM chip) x three patterns x two
 * temperatures, 100 runs per level, run through harness::Campaign on a
 * two-worker pool.
 *
 * The traced run replays every job inline through the same public
 * Board / MemoryDevice calls in Listing-1 order and checks that the
 * replay reproduces the campaign's sweeps bit for bit, so the layer
 * numbers describe the same work the campaign did.
 */

#include <cmath>
#include <filesystem>
#include <optional>
#include <set>
#include <utility>

#include "common.hh"
#include "fpga/platform.hh"
#include "harness/campaign.hh"
#include "harness/checkpoint.hh"
#include "harness/fault_analyzer.hh"
#include "mem/catalog.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

using namespace uvolt;

namespace
{

const std::vector<std::string> devices{"VC707",   "ZC702",  "KC705-A",
                                       "KC705-B", "HBM2-A", "MORS-SRAM-A"};
constexpr int runsPerLevel = 100;
constexpr std::size_t poolWorkers = 2;
constexpr int sampledDomainsPerJob = 8;

struct Names
{
    NameId board = spanName("pmbus.board");
    NameId fill = spanName("harness.fill");
    NameId setpoint = spanName("pmbus.setpoint");
    NameId startRun = spanName("pmbus.start_run");
    NameId count = spanName("vmodel.count");
    NameId power = spanName("pmbus.power");
    NameId readback = spanName("pmbus.readback");
    NameId analysis = spanName("harness.analysis");
    NameId checkpoint = spanName("harness.checkpoint");
    NameId memMake = spanName("mem.make");
    NameId memCountHbm = spanName("mem.count.hbm");
    NameId memCountSram = spanName("mem.count.sram");
    NameId memRead = spanName("mem.read");
};

/** Side counts of a replay that spans cannot carry. */
struct ReplayCounters
{
    std::uint64_t countCalls = 0;
    std::uint64_t repeatedCountCalls = 0; ///< (epoch, V) seen before
    std::uint64_t checkpointBytes = 0;
};

/** A Board-path job replayed call by call (harness::tryRunCriticalSweep
 *  order with a quiet environment). */
Expected<harness::SweepResult>
replayBramJob(const harness::FleetPlan &plan, const harness::FleetJob &job,
              const std::string &ckpt_path, std::uint64_t job_id,
              const Names &names, ReplayCounters &counters)
{
    const fpga::PlatformSpec &spec = fpga::findPlatform(job.platform);
    std::optional<pmbus::Board> board;
    {
        Scope span(names.board, job_id);
        board.emplace(spec, pmbus::sharedChipModel(spec));
        board->setAmbientC(job.ambientC);
    }
    {
        Scope span(names.fill, job_id);
        board->softReset();
        harness::fillPattern(*board, job.pattern);
    }

    harness::SweepOptions options;
    options.pattern = job.pattern;
    options.runsPerLevel = plan.runsPerLevel;
    options.stepMv = plan.stepMv;
    options.collectPerBram = plan.collectPerBram;
    const int from = spec.calib.bramVminMv;
    const int down_to = spec.calib.bramVcrashMv;
    harness::SweepCheckpoint checkpoint =
        harness::makeCheckpoint(*board, options, from, down_to);
    checkpoint.currentLevelMv = from;
    checkpoint.valid = true;

    harness::SweepResult result;
    result.platform = spec.name;
    result.dieId = spec.serialNumber;
    result.pattern = job.pattern;
    result.ambientC = board->ambientC();
    result.runsPerLevel = plan.runsPerLevel;
    const std::uint64_t total_bits = board->device().totalBits();
    std::set<std::pair<std::uint64_t, double>> seen;

    for (int mv = from; mv >= down_to; mv -= plan.stepMv) {
        {
            Scope span(names.setpoint, job_id);
            if (auto set = board->trySetVccBramMv(mv); !set.ok())
                return set.error();
        }
        if (!board->donePin())
            break;
        harness::SweepPoint point;
        point.vccBramMv = mv;
        point.runCounts.reserve(static_cast<std::size_t>(plan.runsPerLevel));
        for (int run = 0; run < plan.runsPerLevel; ++run) {
            {
                Scope span(names.startRun, job_id);
                board->startRun();
            }
            if (tracingEnabled()) {
                const auto key = std::make_pair(
                    board->device().contentEpoch(),
                    board->effectiveVoltage());
                ++counters.countCalls;
                if (!seen.insert(key).second)
                    ++counters.repeatedCountCalls;
            }
            Scope span(names.count, job_id);
            auto count = board->tryCountDeviceFaults();
            if (!count.ok())
                return count.error();
            point.runCounts.push_back(static_cast<double>(count.value()));
        }
        for (double count : point.runCounts)
            point.runStats.add(count);
        point.medianFaults = median(point.runCounts);
        point.faultsPerMbit =
            harness::faultsPerMbit(point.medianFaults, total_bits);
        {
            Scope span(names.power, job_id);
            point.bramPowerW = board->measureBramPowerW();
        }
        if (plan.collectPerBram) {
            board->startReferenceRun();
            const std::uint32_t brams = board->device().bramCount();
            point.perBramFaults.assign(brams, 0);
            harness::FaultSummary summary;
            std::vector<harness::FaultObservation> faults;
            for (std::uint32_t b = 0; b < brams; ++b) {
                faults.clear();
                std::optional<Expected<std::vector<std::uint64_t>>> observed;
                {
                    Scope span(names.readback, job_id);
                    observed.emplace(board->tryReadBramPacked(b));
                }
                if (!observed->ok())
                    return observed->error();
                Scope span(names.analysis, job_id);
                harness::diffBram(board->device().bram(b), observed->value(),
                                  b, faults, summary);
                point.perBramFaults[b] = static_cast<int>(faults.size());
            }
            point.oneToZeroFraction = summary.oneToZeroFraction();
        }
        result.points.push_back(std::move(point));

        checkpoint.completedPoints = result.points;
        checkpoint.currentLevelMv = mv - plan.stepMv;
        checkpoint.currentRunCounts.clear();
        checkpoint.runsStarted = board->runsStarted();
        Scope span(names.checkpoint, job_id);
        harness::saveCheckpointFile(checkpoint, ckpt_path);
        std::error_code ec;
        counters.checkpointBytes += std::filesystem::file_size(ckpt_path, ec);
    }
    board->softReset();
    std::error_code ec;
    std::filesystem::remove(ckpt_path, ec);
    return result;
}

/** The stateless per-(level, run) jitter draw of mem::runMemSweep. */
double
memJitter(std::uint64_t seed, int rail_mv, int run, double sigma_mv)
{
    Rng rng(combineSeeds(seed,
                         combineSeeds(static_cast<std::uint64_t>(rail_mv),
                                      static_cast<std::uint64_t>(run))));
    return rng.gaussian(0.0, sigma_mv / 1000.0);
}

/** A backend (HBM / SRAM) job replayed call by call (mem::runMemSweep
 *  order, seeded by the job label as the fleet engine seeds it). */
harness::SweepResult
replayMemJob(const harness::FleetPlan &plan, const harness::FleetJob &job,
             std::uint64_t job_id, const Names &names)
{
    std::unique_ptr<mem::MemoryDevice> device;
    {
        Scope span(names.memMake, job_id);
        device = mem::makeDevice(job.platform);
    }
    {
        Scope span(names.fill, job_id);
        harness::fillMemPattern(*device, job.pattern);
    }
    const mem::DeviceTraits &traits = device->traits();
    const NameId count_name = device->technology() == mem::Technology::hbm
        ? names.memCountHbm
        : names.memCountSram;
    const std::uint64_t seed = hashSeed(job.label());

    mem::MemSweepResult sweep;
    sweep.device = traits.name;
    sweep.dieId = traits.dieId;
    sweep.technology = mem::technologyName(traits.technology);
    sweep.ambientC = job.ambientC;
    sweep.runsPerLevel = plan.runsPerLevel;
    const double mbit = traits.totalMbit();
    for (int mv = traits.vminMv + plan.stepMv; mv >= traits.vcrashMv;
         mv -= plan.stepMv) {
        mem::MemSweepPoint point;
        point.railMv = mv;
        const double rail_v = mv / 1000.0;
        std::vector<double> counts;
        for (int run = 0; run < plan.runsPerLevel; ++run) {
            const double effective = device->effectiveVoltage(
                rail_v, job.ambientC,
                memJitter(seed, mv, run, traits.runJitterMv));
            Scope span(count_name, job_id);
            const std::uint64_t faults = device->countFaults(effective);
            point.runCounts.push_back(faults);
            counts.push_back(static_cast<double>(faults));
        }
        point.medianFaults =
            static_cast<std::uint64_t>(std::llround(median(counts)));
        point.faultsPerMbit = static_cast<double>(point.medianFaults) / mbit;
        point.railPowerW = device->railPowerW(rail_v);
        if (plan.collectPerBram) {
            const double effective =
                device->effectiveVoltage(rail_v, job.ambientC, 0.0);
            for (std::uint32_t d = 0; d < device->domainCount(); ++d) {
                Scope span(names.memRead, job_id);
                point.perDomainFaults.push_back(
                    device->countDomainFaults(d, effective));
            }
        }
        sweep.points.push_back(std::move(point));
    }
    return harness::sweepFromMem(sweep, job.pattern);
}

/** Replay the whole plan inline; false (with a note) on any mismatch. */
bool
replayPlan(const harness::FleetPlan &plan, const harness::FleetResult &ran,
           const std::string &ckpt_dir, const Names &names,
           ReplayCounters &counters, Result &result)
{
    bool identical = true;
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
        const harness::FleetJob &job = plan.jobs[j];
        harness::SweepResult sweep;
        if (mem::technologyOfName(job.platform) == mem::Technology::bram) {
            auto replayed = replayBramJob(
                plan, job, ckpt_dir + "/replay-" + job.label() + ".ckpt", j,
                names, counters);
            if (!replayed.ok()) {
                result.fail("replay of " + job.label() + ": " +
                            replayed.error().message);
                identical = false;
                continue;
            }
            sweep = replayed.take();
        } else {
            sweep = replayMemJob(plan, job, j, names);
        }
        if (!sameSweep(sweep, ran.jobs[j].sweep)) {
            result.fail("replay of " + job.label() +
                        " differs from Campaign::run");
            identical = false;
        }
    }
    return identical;
}

/**
 * Zero-jitter per-domain counts at Vcrash for a seeded sample of
 * domains per job, recomputed with the scalar reference walkers.
 */
void
checkAgainstReference(const harness::FleetPlan &plan,
                      const harness::FleetResult &ran, std::uint64_t seed,
                      bool wrong_expected, Result &result)
{
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
        const harness::FleetJob &job = plan.jobs[j];
        const harness::SweepPoint &deepest = ran.jobs[j].sweep.atVcrash();
        Rng pick(combineSeeds(seed, j));
        std::vector<int> reference;
        std::vector<std::uint32_t> domains;
        const auto domain_count =
            static_cast<std::uint32_t>(deepest.perBramFaults.size());
        if (domain_count == 0) {
            result.fail(job.label() + " has no per-domain map at Vcrash");
            continue;
        }
        for (int k = 0; k < sampledDomainsPerJob; ++k)
            domains.push_back(static_cast<std::uint32_t>(
                pick.uniformInt(0, domain_count - 1)));

        if (mem::technologyOfName(job.platform) == mem::Technology::bram) {
            const fpga::PlatformSpec &spec = fpga::findPlatform(job.platform);
            pmbus::Board board(spec, pmbus::sharedChipModel(spec));
            board.setAmbientC(job.ambientC);
            board.softReset();
            harness::fillPattern(board, job.pattern);
            board.setVccBramMv(deepest.vccBramMv);
            board.startReferenceRun();
            const double effective = board.effectiveVoltage();
            for (std::uint32_t b : domains)
                reference.push_back(
                    board.faultModel().countBramFaultsReference(
                        board.device().bram(b), b, effective));
        } else {
            auto device = mem::makeDevice(job.platform);
            harness::fillMemPattern(*device, job.pattern);
            const double effective = device->effectiveVoltage(
                deepest.vccBramMv / 1000.0, job.ambientC, 0.0);
            for (std::uint32_t d : domains)
                reference.push_back(
                    device->countDomainFaultsReference(d, effective));
        }
        if (wrong_expected && j == 0)
            reference.front() += 1;
        for (std::size_t k = 0; k < domains.size(); ++k) {
            const int fast = deepest.perBramFaults[domains[k]];
            if (fast != reference[k])
                result.fail(job.label() + " domain " +
                            std::to_string(domains[k]) + " at " +
                            std::to_string(deepest.vccBramMv) +
                            " mV: sweep " + std::to_string(fast) +
                            " faults, reference walker " +
                            std::to_string(reference[k]));
        }
    }
}

} // namespace

Result
runCharacterize(const Options &options)
{
    Result result;
    const Names names;
    const std::string ckpt_dir = options.scratch("checkpoints");
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);

    const harness::Campaign campaign =
        harness::Campaign::onDevices(devices)
            .withPatterns({harness::PatternSpec::allOnes(),
                           harness::PatternSpec::fixed(0xAAAA),
                           harness::PatternSpec::random(0.5, options.seed)})
            .atTemperatures({50.0, 80.0})
            .sweep(runsPerLevel)
            .perBramMaps(true)
            .ledgerUnder("")
            .checkpointUnder(ckpt_dir);
    const harness::FleetPlan plan = campaign.plan();
    ThreadPool pool(poolWorkers);
    // Warm-up campaign: die personalities, heap growth and first-touch
    // page faults happen once per process. Its result is the reference
    // every timed campaign must repeat bit for bit.
    auto warm = campaign.run(pool);
    if (!warm.ok()) {
        result.fail("warm-up Campaign::run: " + warm.error().message);
        return result;
    }
    const harness::FleetResult reference = warm.take();
    result.setupS = secondsSinceStart();
    if (options.setupOnly)
        return result;

    // --- end-to-end: whole campaigns on the pool ---------------------------
    std::vector<double> campaign_s;
    const std::size_t min_campaigns = 3;
    const std::uint64_t measure_start = nowNs();
    while (campaign_s.size() < min_campaigns ||
           (!options.trace && secondsSince(measure_start) < options.seconds)) {
        const std::uint64_t start = nowNs();
        auto ran = campaign.run(pool);
        campaign_s.push_back(secondsSince(start));
        ++result.attempted;
        if (!ran.ok()) {
            result.fail("Campaign::run: " + ran.error().message);
            continue;
        }
        for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
            if (!sameSweep(ran.value().jobs[j].sweep,
                           reference.jobs[j].sweep)) {
                result.fail("campaign repeat differs on " +
                            plan.jobs[j].label());
                break;
            }
        }
    }
    const double campaign_median = medianOf(campaign_s);
    std::string times = "campaign times (s):";
    for (double s : campaign_s)
        times += " " + std::to_string(s);
    result.notes.push_back(times);
    result.notes.push_back(withCount("campaign_s (p50)", campaign_median, "s",
                                     campaign_s.size()));
    result.notes.push_back(withCount("campaign_s (p90)",
                                     quantile(campaign_s, 0.9), "s",
                                     campaign_s.size()));

    checkAgainstReference(plan, reference, options.seed,
                          options.wrongExpected, result);

    if (!options.trace) {
        result.add("work_s", campaign_median, "s");
        return result;
    }

    // --- traced: inline replays, untraced around the traced one ------------
    ReplayCounters scratch;
    const std::uint64_t before_start = nowNs();
    replayPlan(plan, reference, ckpt_dir, names, scratch, result);
    const double before_s = secondsSince(before_start);

    nameThisThread("main");
    enableTracing();
    ReplayCounters counters;
    const std::uint64_t window_start = nowNs();
    replayPlan(plan, reference, ckpt_dir, names, counters, result);
    const std::uint64_t window_end = nowNs();
    disableTracing();

    const std::uint64_t after_start = nowNs();
    replayPlan(plan, reference, ckpt_dir, names, scratch, result);
    const double plain_s = (before_s + secondsSince(after_start)) / 2.0;

    emitAccounting(result, layerNames(), "main", window_start, window_end);
    const Accounting acct = account("main", window_start, window_end);
    const auto it = acct.layers.find("vmodel.count");
    const LayerTotals count =
        it == acct.layers.end() ? LayerTotals{} : it->second;
    result.add("vmodel.count.us_per_call",
               count.calls ? count.selfMs * 1e3 /
                       static_cast<double>(count.calls)
                           : 0.0,
               "us");
    result.add("vmodel.count.repeat_ratio",
               counters.countCalls
                   ? static_cast<double>(counters.repeatedCountCalls) /
                       static_cast<double>(counters.countCalls)
                   : 0.0,
               "ratio");
    result.add("harness.checkpoint.bytes",
               static_cast<double>(counters.checkpointBytes), "bytes");
    result.add("util.pool.speedup", plain_s / campaign_median, "x");
    result.add("trace.overhead_ratio",
               static_cast<double>(window_end - window_start) / 1e9 / plain_s,
               "x");
    return result;
}

} // namespace perfbench
