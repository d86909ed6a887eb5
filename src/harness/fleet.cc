#include "harness/fleet.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>

#include <chrono>

#include "fpga/floorplan.hh"
#include "fpga/platform.hh"
#include "harness/checkpoint.hh"
#include "harness/fvm_io.hh"
#include "harness/run_record.hh"
#include "mem/bram_backend.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"

namespace uvolt::harness
{

namespace
{

/** Engine-level attempts of one job (FleetEngine::runJob). */
constexpr int attemptsPerJob = 3;

struct FleetMetrics
{
    telemetry::Counter &jobs =
        telemetry::Registry::global().counter("fleet.jobs");
    telemetry::Counter &jobRetries =
        telemetry::Registry::global().counter("fleet.job_retries");
    telemetry::Counter &resumes =
        telemetry::Registry::global().counter("fleet.resumes");
};

FleetMetrics &
fleetMetrics()
{
    static FleetMetrics metrics;
    return metrics;
}

struct CacheMetrics
{
    telemetry::Counter &memoryHits =
        telemetry::Registry::global().counter("fvmcache.memory_hits");
    telemetry::Counter &diskHits =
        telemetry::Registry::global().counter("fvmcache.disk_hits");
    telemetry::Counter &misses =
        telemetry::Registry::global().counter("fvmcache.misses");
    telemetry::Counter &corruptFiles =
        telemetry::Registry::global().counter("fvmcache.corrupt_files");
    telemetry::Counter &singleFlightWaits = telemetry::Registry::global()
        .counter("fvmcache.single_flight_waits");
};

CacheMetrics &
cacheMetrics()
{
    static CacheMetrics metrics;
    return metrics;
}

/** Keep [A-Za-z0-9.-], map everything else to '_' (keys, filenames). */
std::string
sanitized(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        const bool keep = std::isalnum(static_cast<unsigned char>(c)) ||
                          c == '-' || c == '.';
        out.push_back(keep ? c : '_');
    }
    return out;
}

bool
isReferencePattern(const PatternSpec &pattern)
{
    return pattern.kind == PatternSpec::Kind::Fixed &&
           pattern.word == 0xFFFF;
}

} // namespace

void
fillMemPattern(mem::MemoryDevice &device, const PatternSpec &pattern)
{
    if (pattern.kind == PatternSpec::Kind::Fixed) {
        device.fill(pattern.word);
        return;
    }
    fillRandomDomains(pattern, device.domainCount(),
                      device.traits().wordsPerDomain,
                      [&](std::uint32_t d, fpga::WordSpan plane) {
                          device.assignDomainWords(d, plane);
                      });
}

SweepResult
sweepFromMem(const mem::MemSweepResult &mem_result,
             const PatternSpec &pattern)
{
    SweepResult result;
    result.platform = mem_result.device;
    result.dieId = mem_result.dieId;
    result.pattern = pattern;
    result.ambientC = mem_result.ambientC;
    result.runsPerLevel = mem_result.runsPerLevel;
    result.truncated = mem_result.truncated;
    result.points.reserve(mem_result.points.size());
    for (const mem::MemSweepPoint &mem_point : mem_result.points) {
        SweepPoint point;
        point.vccBramMv = mem_point.railMv; // the device rail, generally
        point.runCounts.reserve(mem_point.runCounts.size());
        for (std::uint64_t count : mem_point.runCounts) {
            point.runCounts.push_back(static_cast<double>(count));
            point.runStats.add(static_cast<double>(count));
        }
        point.medianFaults =
            static_cast<double>(mem_point.medianFaults);
        point.faultsPerMbit = mem_point.faultsPerMbit;
        point.perBramFaults = mem_point.perDomainFaults;
        point.bramPowerW = mem_point.railPowerW;
        result.points.push_back(std::move(point));
    }
    return result;
}

std::string
FleetJob::label() const
{
    std::string text = strFormat("{}-p{}-t{}", sanitized(platform),
                                 sanitized(pattern.label()), ambientC);
    if (noise)
        text += strFormat("-n{}", noise->seed);
    return text;
}

FleetPlan
FleetPlan::crossProduct(const std::vector<std::string> &platforms,
                        const std::vector<PatternSpec> &patterns,
                        const std::vector<double> &temperatures_c)
{
    FleetPlan plan;
    plan.jobs.reserve(platforms.size() * patterns.size() *
                      temperatures_c.size());
    for (const auto &platform : platforms) {
        for (const auto &pattern : patterns) {
            for (double temp_c : temperatures_c) {
                FleetJob job;
                job.platform = platform;
                job.pattern = pattern;
                job.ambientC = temp_c;
                plan.jobs.push_back(std::move(job));
            }
        }
    }
    return plan;
}

double
FleetResult::dieToDieRatio() const
{
    if (dies.size() < 2)
        return 0.0;
    double best = dies.front().faultsPerMbitAtVcrash;
    double worst = best;
    for (const auto &die : dies) {
        best = std::min(best, die.faultsPerMbitAtVcrash);
        worst = std::max(worst, die.faultsPerMbitAtVcrash);
    }
    if (best <= 0.0)
        return 0.0;
    return worst / best;
}

const SweepResult &
FleetResult::onlySweep() const
{
    if (jobs.size() != 1)
        fatal("FleetResult::onlySweep() on a {}-job fleet", jobs.size());
    return jobs.front().sweep;
}

const DieReport &
FleetResult::die(const std::string &platform) const
{
    for (const auto &report : dies) {
        if (report.platform == platform)
            return report;
    }
    fatal("fleet has no die report for platform '{}'", platform);
}

FvmCache::FvmCache(std::string directory)
    : directory_(std::move(directory))
{
}

std::string
FvmCache::defaultDirectory()
{
    if (const char *dir = std::getenv("UVOLT_CACHE_DIR"))
        return dir;
    return "uvolt_model_cache";
}

std::string
FvmCache::keyFor(const fpga::PlatformSpec &spec,
                 const PatternSpec &pattern, int runs_per_level)
{
    return keyForDevice(mem::bramDeviceTraits(spec), pattern,
                        runs_per_level);
}

std::string
FvmCache::keyForDevice(const mem::DeviceTraits &traits,
                       const PatternSpec &pattern, int runs_per_level)
{
    if (traits.technology == mem::Technology::bram) {
        // Legacy untagged format: BRAM keys (and their on-disk cache
        // files) must stay byte-identical to pre-backend builds.
        return strFormat("{}-{}-p{}-r{}", sanitized(traits.name),
                         sanitized(traits.dieId),
                         sanitized(pattern.label()), runs_per_level);
    }
    return strFormat("{}-{}-{}-p{}-r{}",
                     mem::technologyName(traits.technology),
                     sanitized(traits.name), sanitized(traits.dieId),
                     sanitized(pattern.label()), runs_per_level);
}

Expected<std::shared_ptr<const Fvm>>
FvmCache::obtain(const fpga::PlatformSpec &spec,
                 const PatternSpec &pattern, int runs_per_level,
                 const Characterize &characterize)
{
    const std::string key = keyFor(spec, pattern, runs_per_level);
    const std::string path = strFormat("{}/{}.fvm", directory_, key);

    std::shared_ptr<Entry> entry;
    {
        std::unique_lock lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            entry = it->second;
            if (!entry->ready) {
                ++stats_.singleFlightWaits;
                cacheMetrics().singleFlightWaits.increment();
                ready_.wait(lock, [&] { return entry->ready; });
            } else {
                ++stats_.memoryHits;
                cacheMetrics().memoryHits.increment();
            }
            if (entry->fvm)
                return entry->fvm;
            return *entry->failure;
        }
        entry = std::make_shared<Entry>();
        entries_[key] = entry;
    }

    // We own this flight: probe the disk, characterize on a miss, and
    // publish the outcome to every thread parked on the entry.
    const fpga::Floorplan floorplan =
        fpga::Floorplan::columnGrid(spec.bramCount, spec.columnHeight);

    bool disk_hit = false;
    bool corrupt = false;
    Expected<Fvm> produced = tryLoadFvm(floorplan, path);
    if (produced.ok()) {
        disk_hit = true;
    } else {
        corrupt = produced.code() == Errc::corruptCache;
        produced = characterize();
        if (produced.ok()) {
            if (auto saved =
                    trySaveFvm(produced.value(), floorplan, path);
                !saved.ok())
                warnc("fvmcache", "{}", saved.error().message);
        }
    }

    std::unique_lock lock(mutex_);
    if (disk_hit) {
        ++stats_.diskHits;
        cacheMetrics().diskHits.increment();
    } else {
        ++stats_.misses;
        cacheMetrics().misses.increment();
    }
    if (corrupt) {
        ++stats_.corruptFiles;
        cacheMetrics().corruptFiles.increment();
    }
    if (produced.ok()) {
        entry->fvm = std::make_shared<const Fvm>(produced.take());
        entry->ready = true;
        ready_.notify_all();
        return entry->fvm;
    }
    // Waiters of this flight share the error; the entry is dropped so a
    // later obtain() retries instead of caching the failure forever.
    entry->failure = produced.error();
    entry->ready = true;
    entries_.erase(key);
    ready_.notify_all();
    return produced.error();
}

Expected<void>
FvmCache::storeKeyed(const std::string &key,
                     const fpga::Floorplan &floorplan, const Fvm &fvm)
{
    const std::string path = strFormat("{}/{}.fvm", directory_, key);
    if (auto saved = trySaveFvm(fvm, floorplan, path); !saved.ok())
        return saved.error();

    std::unique_lock lock(mutex_);
    auto entry = std::make_shared<Entry>();
    entry->ready = true;
    entry->fvm = std::make_shared<const Fvm>(fvm);
    entries_[key] = entry;
    return {};
}

void
FvmCache::evictMemory()
{
    std::unique_lock lock(mutex_);
    // In-flight entries stay: their owners still publish through them.
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second->ready)
            it = entries_.erase(it);
        else
            ++it;
    }
}

FvmCacheStats
FvmCache::stats() const
{
    std::unique_lock lock(mutex_);
    return stats_;
}

FleetEngine::FleetEngine(FleetOptions options)
    : options_(std::move(options))
{
}

namespace
{

/** BRAM attempt: Board, optional noise and regions, checkpointed sweep. */
Expected<FleetJobOutcome>
runBoardAttempt(const FleetPlan &plan, const FleetJob &job, int attempt,
                const std::string &checkpoint_path, int slice_levels,
                const SliceCheck &at_slice)
{
    const fpga::PlatformSpec &spec = fpga::findPlatform(job.platform);
    pmbus::Board board(spec, pmbus::sharedChipModel(spec));
    board.setAmbientC(job.ambientC);
    if (job.noise) {
        // Replaying the exact fault schedule that just exhausted the
        // budgets would fail identically; deterministic in the attempt
        // number, so the campaign stays bit-reproducible.
        pmbus::NoiseConfig noise = *job.noise;
        noise.seed += static_cast<std::uint64_t>(attempt - 1) * 1000003ull;
        board.attachNoise(noise);
    }

    FleetJobOutcome outcome;
    outcome.job = job;
    outcome.attempts = attempt;
    if (plan.discoverRegions) {
        auto bram_regions = tryDiscoverRegions(board, fpga::RailId::VccBram);
        if (!bram_regions.ok())
            return bram_regions.error();
        auto int_regions = tryDiscoverRegions(board, fpga::RailId::VccInt);
        if (!int_regions.ok())
            return int_regions.error();
        outcome.bramRegions = bram_regions.take();
        outcome.intRegions = int_regions.take();
    }

    SweepOptions options;
    options.pattern = job.pattern;
    options.runsPerLevel = plan.runsPerLevel;
    options.stepMv = plan.stepMv;
    options.collectPerBram = plan.collectPerBram;
    options.maxLevels = slice_levels;
    options.checkpointPath = checkpoint_path;

    // The in-memory checkpoint carries progress from one slice to the
    // next; the file adds resume-after-restart.
    SweepCheckpoint checkpoint;
    if (!checkpoint_path.empty() || slice_levels > 0)
        options.checkpoint = &checkpoint;
    if (!checkpoint_path.empty() &&
        std::filesystem::exists(checkpoint_path)) {
        auto loaded = loadCheckpointFile(checkpoint_path);
        if (loaded.ok())
            checkpoint = loaded.take();
        else
            warnc("fleet", "ignoring unusable checkpoint '{}': {}",
                  checkpoint_path, loaded.error().message);
    }
    outcome.resumed = checkpoint.valid;

    for (;;) {
        if (at_slice) {
            if (auto go = at_slice(); !go.ok())
                return go.error();
        }
        auto sweep = tryRunCriticalSweep(board, options);
        if (!sweep.ok())
            return sweep.error();
        if (!sweep.value().truncated) {
            outcome.sweep = sweep.take();
            break;
        }
    }
    if (!checkpoint_path.empty()) {
        std::error_code ec;
        std::filesystem::remove(checkpoint_path, ec);
    }
    return outcome;
}

/** HBM / SRAM attempt: program the backend, sweep it slice by slice. */
Expected<FleetJobOutcome>
runBackendAttempt(const FleetPlan &plan, const FleetJob &job, int attempt,
                  std::uint64_t jitter_seed, int slice_levels,
                  const SliceCheck &at_slice)
{
    if (job.noise)
        return makeError(Errc::invalidRequest,
                         "job {}: noise injection is BRAM-only",
                         job.label());
    if (plan.discoverRegions)
        return makeError(Errc::invalidRequest,
                         "job {}: region discovery is BRAM-only",
                         job.label());

    auto device = mem::makeDevice(job.platform);
    fillMemPattern(*device, job.pattern);

    mem::MemSweepOptions options;
    options.runsPerLevel = plan.runsPerLevel;
    options.stepMv = plan.stepMv;
    options.ambientC = job.ambientC;
    options.collectPerDomain = plan.collectPerBram;
    options.seed = jitter_seed;
    if (slice_levels > 0)
        options.maxLevels = slice_levels;

    // No checkpoint file: the stateless per-(level, run) jitter stream
    // makes every slice resumable from its first unmeasured level.
    mem::MemSweepResult merged;
    for (;;) {
        if (at_slice) {
            if (auto go = at_slice(); !go.ok())
                return go.error();
        }
        mem::MemSweepResult part = mem::runMemSweep(*device, options);
        if (!options.resumeFromMv) {
            merged = std::move(part);
        } else {
            merged.points.insert(merged.points.end(), part.points.begin(),
                                 part.points.end());
            merged.truncated = part.truncated;
        }
        if (!merged.truncated)
            break;
        options.resumeFromMv = merged.points.back().railMv;
    }

    FleetJobOutcome outcome;
    outcome.job = job;
    outcome.attempts = attempt;
    outcome.sweep = sweepFromMem(merged, job.pattern);
    return outcome;
}

} // namespace

Expected<FleetJobOutcome>
runJobAttempt(const FleetPlan &plan, const FleetJob &job, int attempt,
              std::uint64_t jitter_seed, const std::string &checkpoint_path,
              int slice_levels, const SliceCheck &at_slice)
{
    if (mem::technologyOfName(job.platform) == mem::Technology::bram)
        return runBoardAttempt(plan, job, attempt, checkpoint_path,
                               slice_levels, at_slice);
    return runBackendAttempt(plan, job, attempt, jitter_seed, slice_levels,
                             at_slice);
}

Expected<FleetJobOutcome>
FleetEngine::runJob(const FleetPlan &plan, const FleetJob &job) const
{
    UVOLT_TRACE_SCOPE("fleet.job", [&] {
        return telemetry::TraceArgs{{"label", job.label()}};
    });
    fleetMetrics().jobs.increment();

    std::string ckpt_path;
    if (!options_.checkpointDir.empty())
        ckpt_path = strFormat("{}/{}.ckpt", options_.checkpointDir,
                              job.label());

    Error last = makeError(Errc::recoveryExhausted,
                           "fleet job {} never ran", job.label());
    for (int attempt = 1; attempt <= attemptsPerJob; ++attempt) {
        UVOLT_TRACE_SCOPE("fleet.attempt", [&] {
            return telemetry::TraceArgs{
                {"label", job.label()},
                {"attempt", std::to_string(attempt)}};
        });
        if (attempt > 1)
            fleetMetrics().jobRetries.increment();
        // Backend jitter is keyed by the job identity, like the
        // per-board run streams of the BRAM path.
        auto outcome =
            runJobAttempt(plan, job, attempt, hashSeed(job.label()),
                          ckpt_path);
        if (outcome.ok()) {
            if (outcome.value().resumed)
                fleetMetrics().resumes.increment();
            return outcome;
        }
        last = outcome.error();
        if (last.code == Errc::invalidRequest)
            break; // a malformed job fails identically on every attempt
    }
    return last;
}

namespace
{

/** Canonical plan description the config digest hashes. */
std::string
canonicalPlan(const FleetPlan &plan)
{
    std::string canonical = strFormat(
        "runs={};step={};perbram={};regions={};recoveries={};"
        "attempts={};jobs=",
        plan.runsPerLevel, plan.stepMv, plan.collectPerBram ? 1 : 0,
        plan.discoverRegions ? 1 : 0, maxRecoveriesPerRun, attemptsPerJob);
    for (const auto &job : plan.jobs)
        canonical += job.label() + ";";
    return canonical;
}

/** What the process had counted when a run started. */
struct RunBaseline
{
    telemetry::MetricsSnapshot metrics;
    std::size_t blackboxDumps = 0;

    static RunBaseline
    now()
    {
        return {telemetry::Registry::global().metrics(),
                blackbox::dumps().size()};
    }
};

/**
 * Append a finished run's record to the ledger; failures warn. Its
 * counters and black-box dumps are those added since @a baseline.
 */
void
recordRun(const FleetOptions &options, const FleetPlan &plan,
          const FleetResult &result, std::size_t workers,
          double duration_ms, const RunBaseline &baseline)
{
    RunRecord record = RunRecord::start("FleetEngine", canonicalPlan(plan));
    record.workers = workers;
    record.durationMs = duration_ms;
    RunRecord::Fleet &fleet = record.fleet.emplace();
    fleet.runsPerLevel = plan.runsPerLevel;
    fleet.stepMv = plan.stepMv;
    fleet.collectPerBram = plan.collectPerBram;
    fleet.discoverRegions = plan.discoverRegions;
    fleet.maxAttemptsPerJob = attemptsPerJob;
    for (const auto &job : plan.jobs) {
        fleet.jobs.push_back(
            {job.label(), job.noise ? job.noise->seed : 0,
             mem::technologyName(mem::technologyOfName(job.platform))});
    }
    fleet.jobRetries = result.jobRetries;
    fleet.crashRecoveries = result.resilience.crashRecoveries;
    fleet.checkpointResumes = result.resilience.checkpointResumes;
    for (const auto &die : result.dies)
        fleet.dieRates.emplace_back(die.platform, die.faultsPerMbitAtVcrash);
    if (!options.checkpointDir.empty())
        record.artifacts.push_back(options.checkpointDir);
    if (options.fvmCache)
        record.artifacts.push_back(options.fvmCache->directory());
    const std::vector<std::string> dumps = blackbox::dumps();
    record.blackboxPaths.assign(
        dumps.begin() + std::min(baseline.blackboxDumps, dumps.size()),
        dumps.end());
    for (const auto &[name, value] :
         telemetry::Registry::global().metrics().counters) {
        if (const std::uint64_t before = baseline.metrics.counter(name);
            value > before)
            record.counters.emplace_back(name, value - before);
    }

    if (auto appended = record.append(options.ledgerDir + "/runs.jsonl");
        !appended.ok())
        warnc("ledger", "{}", appended.error().message);
}

} // namespace

Expected<FleetResult>
FleetEngine::run(const FleetPlan &plan, ThreadPool &pool)
{
    UVOLT_TRACE_SCOPE("fleet.run", [&] {
        return telemetry::TraceArgs{
            {"jobs", std::to_string(plan.jobs.size())}};
    });
    const auto run_start = std::chrono::steady_clock::now();
    FleetResult result;
    if (plan.jobs.empty())
        return result;
    const RunBaseline baseline = options_.ledgerDir.empty()
        ? RunBaseline{}
        : RunBaseline::now();

    // Warm the per-die personalities serially so workers alias instead
    // of queueing on the synthesis lock, and create the checkpoint
    // scratch space before anyone needs it.
    for (const auto &job : plan.jobs)
        mem::warmPersonality(job.platform);
    if (!options_.checkpointDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options_.checkpointDir, ec);
    }

    // Every job writes its own pre-assigned slot; the pool's wait()
    // publishes the writes. Completion order never shows in the result.
    std::vector<std::optional<Expected<FleetJobOutcome>>> slots(
        plan.jobs.size());
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        // Each job is one flow: a flow-start span here on the
        // submitting thread, the queue-wait recorded by whichever
        // worker dequeues it, the job body's spans as flow steps, and
        // a zero-width finish — one connected track per job in
        // Perfetto, whatever thread ran it.
        telemetry::TraceContext ctx;
        const std::uint64_t submit_ns = telemetry::nowNs();
        if (telemetry::Telemetry::enabled()) {
            ctx.flowId = telemetry::mintFlowId();
            ctx.spanId = telemetry::recordFlowSpan(
                "fleet.submit", submit_ns, 0,
                telemetry::TraceContext{ctx.flowId, 0},
                telemetry::FlowPoint::start,
                {{"job", plan.jobs[i].label()}});
        }
        pool.submit([this, &plan, &slots, i, submit_ns, ctx] {
            if (ctx.active()) {
                telemetry::recordFlowSpan(
                    "fleet.queue_wait", submit_ns,
                    telemetry::nowNs() - submit_ns, ctx,
                    telemetry::FlowPoint::step,
                    {{"job", plan.jobs[i].label()}});
            }
            telemetry::ContextScope scope(ctx);
            slots[i].emplace(runJob(plan, plan.jobs[i]));
            if (ctx.active()) {
                const std::uint64_t done_ns = telemetry::nowNs();
                telemetry::recordFlowSpan("fleet.done", done_ns, 0, ctx,
                                          telemetry::FlowPoint::finish);
            }
        });
    }
    pool.wait();

    // First failure in plan order wins, independent of finish order.
    for (auto &slot : slots) {
        if (!slot->ok())
            return slot->error();
    }

    result.jobs.reserve(plan.jobs.size());
    for (auto &slot : slots) {
        FleetJobOutcome outcome = slot->take();
        result.jobRetries +=
            static_cast<std::uint64_t>(outcome.attempts - 1);
        const ResilienceReport &r = outcome.sweep.resilience;
        result.resilience.crashRecoveries += r.crashRecoveries;
        result.resilience.runsRetried += r.runsRetried;
        result.resilience.linkRetransmits += r.linkRetransmits;
        result.resilience.pmbusRetries += r.pmbusRetries;
        result.resilience.checkpointResumes += r.checkpointResumes;
        result.jobs.push_back(std::move(outcome));
    }

    // Per-die aggregation in order of first appearance.
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
        const FleetJobOutcome &outcome = result.jobs[i];
        DieReport *report = nullptr;
        for (auto &existing : result.dies) {
            if (existing.platform == outcome.job.platform)
                report = &existing;
        }
        if (!report) {
            DieReport fresh;
            fresh.platform = outcome.job.platform;
            fresh.dieId = outcome.sweep.dieId;
            result.dies.push_back(std::move(fresh));
            report = &result.dies.back();
        }
        report->jobIndices.push_back(i);
    }
    for (auto &report : result.dies) {
        // Traits, not findPlatform: the die may be any backend. For
        // BRAM names the two describe the identical geometry.
        const mem::DeviceTraits traits =
            mem::traitsOfName(report.platform);
        report.technology = mem::technologyName(traits.technology);
        const fpga::Floorplan floorplan = fpga::Floorplan::columnGrid(
            traits.domainCount, traits.columnHeight);

        // The die's headline rate comes from its reference-pattern job
        // (the paper compares dies at 0xFFFF); first job as fallback.
        std::size_t rate_job = report.jobIndices.front();
        for (std::size_t idx : report.jobIndices) {
            if (isReferencePattern(result.jobs[idx].job.pattern)) {
                rate_job = idx;
                break;
            }
        }
        report.faultsPerMbitAtVcrash =
            result.jobs[rate_job].sweep.atVcrash().faultsPerMbit;

        if (!plan.collectPerBram)
            continue;
        std::vector<int> merged;
        for (std::size_t idx : report.jobIndices) {
            const Fvm fvm =
                fvmFromSweep(result.jobs[idx].sweep, floorplan);
            if (merged.empty()) {
                merged = fvm.perBramFaults();
                continue;
            }
            for (std::size_t b = 0; b < merged.size(); ++b)
                merged[b] = std::max(merged[b], fvm.faultsOf(
                                                    static_cast<
                                                        std::uint32_t>(b)));
        }
        report.mergedFvm.emplace(traits.name, floorplan,
                                 std::move(merged));

        if (options_.fvmCache) {
            if (auto stored = options_.fvmCache->storeKeyed(
                    FvmCache::keyForDevice(
                        traits, result.jobs[rate_job].job.pattern,
                        plan.runsPerLevel),
                    floorplan, *report.mergedFvm);
                !stored.ok())
                warnc("fleet", "{}", stored.error().message);
        }
    }

    if (!options_.ledgerDir.empty()) {
        const double duration_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - run_start)
                .count();
        recordRun(options_, plan, result, pool.workerCount(), duration_ms,
                  baseline);
    }
    return result;
}

Expected<FleetResult>
FleetEngine::run(const FleetPlan &plan)
{
    ThreadPool inline_pool(0);
    return run(plan, inline_pool);
}

} // namespace uvolt::harness
