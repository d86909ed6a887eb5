#include "harness/campaign.hh"

#include "harness/ledger.hh"
#include "util/logging.hh"

namespace uvolt::harness
{

Campaign::Campaign()
{
    options_.ledgerDir = Ledger::defaultDirectory();
}

Campaign
Campaign::onPlatform(std::string platform)
{
    Campaign campaign;
    campaign.platforms_.push_back(std::move(platform));
    return campaign;
}

Campaign
Campaign::onDevices(std::vector<std::string> devices)
{
    if (devices.empty())
        fatal("Campaign::onDevices() needs at least one device");
    Campaign campaign;
    campaign.platforms_ = std::move(devices);
    return campaign;
}

Campaign &
Campaign::withPattern(const PatternSpec &pattern)
{
    patterns_.push_back(pattern);
    return *this;
}

Campaign &
Campaign::withPatterns(const std::vector<PatternSpec> &patterns)
{
    patterns_.insert(patterns_.end(), patterns.begin(), patterns.end());
    return *this;
}

Campaign &
Campaign::atTemperature(double temp_c)
{
    temperaturesC_.push_back(temp_c);
    return *this;
}

Campaign &
Campaign::atTemperatures(const std::vector<double> &temps_c)
{
    temperaturesC_.insert(temperaturesC_.end(), temps_c.begin(),
                          temps_c.end());
    return *this;
}

Campaign &
Campaign::withNoise(const pmbus::NoiseConfig &noise)
{
    noise_ = noise;
    return *this;
}

Campaign &
Campaign::sweep(int runs_per_level)
{
    if (runs_per_level < 1)
        fatal("Campaign::sweep() needs at least one run per level, got {}",
              runs_per_level);
    runsPerLevel_ = runs_per_level;
    return *this;
}

Campaign &
Campaign::stepMv(int step_mv)
{
    if (step_mv < 1)
        fatal("Campaign::stepMv() needs a positive step, got {}", step_mv);
    stepMv_ = step_mv;
    return *this;
}

Campaign &
Campaign::perBramMaps(bool collect)
{
    collectPerBram_ = collect;
    return *this;
}

Campaign &
Campaign::discoverRegions()
{
    discoverRegions_ = true;
    return *this;
}

Campaign &
Campaign::checkpointUnder(std::string directory)
{
    options_.checkpointDir = std::move(directory);
    return *this;
}

Campaign &
Campaign::cacheInto(FvmCache &cache)
{
    options_.fvmCache = &cache;
    return *this;
}

Campaign &
Campaign::ledgerUnder(std::string directory)
{
    options_.ledgerDir = std::move(directory);
    return *this;
}

FleetPlan
Campaign::plan() const
{
    const std::vector<PatternSpec> patterns =
        patterns_.empty() ? std::vector<PatternSpec>{PatternSpec::allOnes()}
                          : patterns_;
    const std::vector<double> temps =
        temperaturesC_.empty() ? std::vector<double>{50.0}
                               : temperaturesC_;

    FleetPlan plan = FleetPlan::crossProduct(platforms_, patterns, temps);
    if (noise_) {
        for (auto &job : plan.jobs)
            job.noise = *noise_;
    }
    plan.runsPerLevel = runsPerLevel_;
    plan.stepMv = stepMv_;
    plan.collectPerBram = collectPerBram_;
    plan.discoverRegions = discoverRegions_;
    return plan;
}

Expected<FleetResult>
Campaign::run() const
{
    FleetEngine engine(options_);
    return engine.run(plan());
}

Expected<FleetResult>
Campaign::run(ThreadPool &pool) const
{
    FleetEngine engine(options_);
    return engine.run(plan(), pool);
}

} // namespace uvolt::harness
