#include "pmbus/fault_injector.hh"

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace uvolt::pmbus
{

namespace
{

struct NoiseMetrics
{
    telemetry::Counter &framesCorrupted =
        telemetry::Registry::global().counter("noise.frames_corrupted");
    telemetry::Counter &nacks =
        telemetry::Registry::global().counter("noise.nacks");
    telemetry::Counter &setpointJitters =
        telemetry::Registry::global().counter("noise.setpoint_jitters");
    telemetry::Counter &spuriousCrashes =
        telemetry::Registry::global().counter("noise.spurious_crashes");
};

NoiseMetrics &
noiseMetrics()
{
    static NoiseMetrics metrics;
    return metrics;
}

} // namespace

NoiseConfig
NoiseConfig::harsh(std::uint64_t seed, double p)
{
    NoiseConfig config;
    config.seed = seed;
    config.frameCorruptProb = p;
    config.pmbusNackProb = p;
    config.setpointJitterProb = p;
    config.spuriousCrashProb = p;
    return config;
}

FaultInjector::FaultInjector(const NoiseConfig &config)
    : config_(config),
      rng_(combineSeeds(hashSeed("harsh-environment"), config.seed))
{
    if (config_.frameCorruptProb < 0.0 || config_.frameCorruptProb > 1.0 ||
        config_.pmbusNackProb < 0.0 || config_.pmbusNackProb > 1.0 ||
        config_.setpointJitterProb < 0.0 ||
        config_.setpointJitterProb > 1.0 ||
        config_.spuriousCrashProb < 0.0 || config_.spuriousCrashProb > 1.0)
        fatal("noise probabilities must lie in [0, 1]");
    if (config_.crashBandMv < 0)
        fatal("crash band must be non-negative, got {} mV",
              config_.crashBandMv);
}

bool
FaultInjector::corruptThisFrame()
{
    if (config_.frameCorruptProb <= 0.0 ||
        !rng_.chance(config_.frameCorruptProb))
        return false;
    ++stats_.framesCorrupted;
    noiseMetrics().framesCorrupted.increment();
    return true;
}

bool
FaultInjector::nackThisTransaction()
{
    if (config_.pmbusNackProb <= 0.0 || !rng_.chance(config_.pmbusNackProb))
        return false;
    ++stats_.nacks;
    noiseMetrics().nacks.increment();
    return true;
}

int
FaultInjector::perturbSetpoint(int mv, int step_mv)
{
    if (config_.setpointJitterProb <= 0.0 ||
        !rng_.chance(config_.setpointJitterProb))
        return mv;
    ++stats_.setpointJitters;
    noiseMetrics().setpointJitters.increment();
    return rng_.chance(0.5) ? mv + step_mv : mv - step_mv;
}

void
FaultInjector::recordSpuriousCrash()
{
    ++stats_.spuriousCrashes;
    noiseMetrics().spuriousCrashes.increment();
}

int
FaultInjector::armCrash(int level_mv, int vcrash_mv, std::uint32_t op_count)
{
    if (config_.spuriousCrashProb <= 0.0 || op_count == 0)
        return -1;
    // Spurious crashes live in the band just above Vcrash: the paper's
    // "harsh environment" pushes marginal levels over the edge, while
    // comfortably high levels stay stable.
    if (level_mv <= vcrash_mv || level_mv > vcrash_mv + config_.crashBandMv)
        return -1;
    if (!rng_.chance(config_.spuriousCrashProb))
        return -1;
    return static_cast<int>(rng_.uniformInt(0, op_count - 1));
}

} // namespace uvolt::pmbus
