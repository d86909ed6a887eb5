#include "mem/sweep.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace uvolt::mem
{

namespace
{

/** The stateless per-(level, run) jitter draw (see file comment). */
double
jitterDraw(std::uint64_t seed, int rail_mv, int run, double sigma_mv)
{
    Rng rng(combineSeeds(seed,
                         combineSeeds(static_cast<std::uint64_t>(rail_mv),
                                      static_cast<std::uint64_t>(run))));
    return rng.gaussian(0.0, sigma_mv / 1000.0);
}

} // namespace

MemSweepResult
runMemSweep(const MemoryDevice &device, const MemSweepOptions &options)
{
    const DeviceTraits &traits = device.traits();
    if (options.stepMv <= 0)
        fatal("mem sweep: step {} mV must be positive", options.stepMv);
    if (options.runsPerLevel <= 0)
        fatal("mem sweep: runsPerLevel {} must be positive",
              options.runsPerLevel);

    MemSweepResult result;
    result.device = traits.name;
    result.dieId = traits.dieId;
    result.technology = technologyName(traits.technology);
    result.ambientC = options.ambientC;
    result.runsPerLevel = options.runsPerLevel;

    const double mbit = traits.totalMbit();
    int emitted = 0;
    for (int mv = traits.vminMv + options.stepMv; mv >= traits.vcrashMv;
         mv -= options.stepMv) {
        if (options.resumeFromMv && mv >= *options.resumeFromMv)
            continue; // already measured by an earlier slice
        if (options.maxLevels && emitted >= *options.maxLevels) {
            result.truncated = true;
            break;
        }
        ++emitted;

        MemSweepPoint point;
        point.railMv = mv;
        const double railV = mv / 1000.0;
        point.runCounts.reserve(
            static_cast<std::size_t>(options.runsPerLevel));
        std::vector<double> counts;
        counts.reserve(static_cast<std::size_t>(options.runsPerLevel));
        for (int run = 0; run < options.runsPerLevel; ++run) {
            const double jitter = jitterDraw(options.seed, mv, run,
                                             traits.runJitterMv);
            const double effective = device.effectiveVoltage(
                railV, options.ambientC, jitter);
            const std::uint64_t faults = device.countFaults(effective);
            point.runCounts.push_back(faults);
            counts.push_back(static_cast<double>(faults));
        }
        point.medianFaults = static_cast<std::uint64_t>(
            std::llround(median(counts)));
        point.faultsPerMbit =
            static_cast<double>(point.medianFaults) / mbit;
        point.railPowerW = device.railPowerW(railV);

        if (options.collectPerDomain) {
            const double effective =
                device.effectiveVoltage(railV, options.ambientC, 0.0);
            point.perDomainFaults.reserve(device.domainCount());
            for (std::uint32_t d = 0; d < device.domainCount(); ++d)
                point.perDomainFaults.push_back(
                    device.countDomainFaults(d, effective));
        }
        result.points.push_back(std::move(point));
    }
    return result;
}

} // namespace uvolt::mem
