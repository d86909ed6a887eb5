#include "harness/experiment.hh"

#include <algorithm>
#include <functional>

#include "harness/checkpoint.hh"
#include "harness/fault_analyzer.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"

namespace uvolt::harness
{

namespace
{

struct SweepMetrics
{
    telemetry::Counter &sweeps =
        telemetry::Registry::global().counter("sweep.campaigns");
    telemetry::Counter &levels =
        telemetry::Registry::global().counter("sweep.levels");
    telemetry::Counter &runs =
        telemetry::Registry::global().counter("sweep.runs");
    telemetry::Counter &crashRecoveries =
        telemetry::Registry::global().counter("sweep.crash_recoveries");
    telemetry::Counter &runsRetried =
        telemetry::Registry::global().counter("sweep.runs_retried");
    telemetry::Counter &checkpointResumes =
        telemetry::Registry::global().counter("sweep.checkpoint_resumes");
    telemetry::Histogram &levelMs = telemetry::Registry::global().histogram(
        "sweep.level_ms",
        {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
};

SweepMetrics &
sweepMetrics()
{
    static SweepMetrics metrics;
    return metrics;
}

} // namespace

bool
PatternSpec::wellFormed() const
{
    return kind == Kind::Fixed || (oneDensity >= 0.0 && oneDensity <= 1.0);
}

std::string
PatternSpec::label() const
{
    if (kind == Kind::Fixed)
        return strFormat("16'h{:04X}", word);
    return strFormat("random-{}%",
                     static_cast<int>(oneDensity * 100.0 + 0.5));
}

void
fillPattern(pmbus::Board &board, const PatternSpec &pattern)
{
    auto &device = board.device();
    if (pattern.kind == PatternSpec::Kind::Fixed) {
        device.fillAll(pattern.word);
        return;
    }
    fillRandomDomains(pattern, device.bramCount(), fpga::bramWords,
                      [&](std::uint32_t b, fpga::WordSpan plane) {
                          device.bram(b).assignWords(plane);
                      });
}

void
fillRandomDomains(
    const PatternSpec &pattern, std::uint32_t domains,
    std::size_t words_per_domain,
    const std::function<void(std::uint32_t, fpga::WordSpan)> &assign)
{
    constexpr auto lanes = static_cast<std::uint32_t>(bernoulliLanes);
    std::vector<std::uint64_t> seeds(lanes);
    std::vector<std::uint64_t> planes(lanes * words_per_domain);
    for (std::uint32_t first = 0; first < domains; first += lanes) {
        const std::uint32_t count = std::min(lanes, domains - first);
        for (std::uint32_t k = 0; k < count; ++k)
            seeds[k] = combineSeeds(pattern.seed, first + k);
        fillBernoulliStreams(std::span(seeds).first(count), planes,
                             words_per_domain, pattern.oneDensity);
        for (std::uint32_t k = 0; k < count; ++k)
            assign(first + k, fpga::WordSpan(planes).subspan(
                                  k * words_per_domain, words_per_domain));
    }
}

double
RegionResult::guardband() const
{
    return 1.0 - static_cast<double>(vminMv) / static_cast<double>(vnomMv);
}

namespace
{

/**
 * Crash watchdog: when DONE drops mid-measurement the board is
 * recovered exactly as the paper recovers crashed boards — by
 * reconfiguration — then brought back to the campaign's conditions:
 * soft reset, pattern re-fill, setpoint restore.
 */
struct Watchdog
{
    pmbus::Board &board;
    PatternSpec pattern;
    fpga::RailId rail = fpga::RailId::VccBram;
    int levelMv = 0;
    ResilienceReport *report = nullptr;

    /** Reconfigure and restore campaign conditions after DONE-low. */
    Expected<void>
    recover() const
    {
        if (report)
            ++report->crashRecoveries;
        sweepMetrics().crashRecoveries.increment();
        board.softReset();
        fillPattern(board, pattern);
        const auto set = rail == fpga::RailId::VccBram
            ? board.trySetVccBramMv(levelMv)
            : board.trySetVccIntMv(levelMv);
        if (!set.ok())
            return set.error();
        if (!board.donePin())
            panic("{}: board crashed again right after recovery at {} mV "
                  "(level should be operable)",
                  board.spec().name, levelMv);
        return {};
    }
};

/**
 * Count device-wide BRAM faults for the run in progress, recovering
 * injected/spurious crashes and retrying the run under its original
 * supply jitter so the result equals an undisturbed run's.
 */
Expected<std::uint64_t>
countDeviceFaultsRecoverable(const Watchdog &watchdog)
{
    pmbus::Board &board = watchdog.board;
    const double jitter = board.runJitterV();
    for (int recovery = 0; recovery <= maxRecoveriesPerRun; ++recovery) {
        // One device-level probe: the per-epoch count index on a quiet
        // crash schedule, degrading to the exact legacy per-BRAM probe
        // loop when a spurious-crash schedule is armed.
        const auto count = board.tryCountDeviceFaults();
        if (count.ok())
            return count.value();
        if (count.code() != Errc::crashDetected)
            return count.error();
        if (auto recovered = watchdog.recover(); !recovered.ok())
            return recovered.error();
        board.resumeRun(jitter);
        sweepMetrics().runsRetried.increment();
        if (watchdog.report)
            ++watchdog.report->runsRetried;
    }
    return makeError(Errc::recoveryExhausted,
                     "{}: run at {} mV kept crashing through {} "
                     "recoveries",
                     board.spec().name, watchdog.levelMv,
                     maxRecoveriesPerRun);
}

/** Measurement runs region discovery probes each BRAM level with. */
constexpr int regionProbeRuns = 5;

/** Whether the probed rail shows any fault at the present level. */
Expected<bool>
probeFaulty(pmbus::Board &board, fpga::RailId rail, const Watchdog &watchdog)
{
    if (rail == fpga::RailId::VccBram) {
        for (int run = 0; run < regionProbeRuns; ++run) {
            board.startRun();
            auto count = countDeviceFaultsRecoverable(watchdog);
            if (!count.ok())
                return count.error();
            if (count.value() > 0)
                return true;
        }
        return false;
    }
    return board.internalLogicFaulty();
}

/** Snapshot link/pmbus retry counters so a campaign can report deltas. */
struct ChannelBaseline
{
    std::uint64_t linkRetransmits;
    std::uint64_t pmbusRetries;

    explicit ChannelBaseline(const pmbus::Board &board)
        : linkRetransmits(board.link().stats().retransmits),
          pmbusRetries(board.pmbusStats().retries)
    {
    }

    void
    fold(const pmbus::Board &board, ResilienceReport &report) const
    {
        report.linkRetransmits +=
            board.link().stats().retransmits - linkRetransmits;
        report.pmbusRetries += board.pmbusStats().retries - pmbusRetries;
    }
};

} // namespace

Expected<RegionResult>
tryDiscoverRegions(pmbus::Board &board, fpga::RailId rail)
{
    if (rail == fpga::RailId::VccAux)
        fatal("tryDiscoverRegions: VCCAUX is not underscaled in this study");

    board.softReset();
    if (rail == fpga::RailId::VccBram)
        fillPattern(board, PatternSpec::allOnes());

    RegionResult result;
    result.platform = board.spec().name;
    result.rail = rail;
    result.vnomMv = board.spec().vnomMv;
    result.vminMv = board.spec().vnomMv;
    result.vcrashMv = 0;

    const int step = pmbus::voutStepMv;
    int first_faulty_mv = 0;

    Watchdog watchdog{board, PatternSpec::allOnes(), rail, 0, nullptr};

    for (int mv = result.vnomMv; mv >= 0; mv -= step) {
        const auto set = rail == fpga::RailId::VccBram
            ? board.trySetVccBramMv(mv)
            : board.trySetVccIntMv(mv);
        if (!set.ok())
            return set.error();

        if (!board.donePin()) {
            // CRASH region entered: the last operable level was one step
            // above (paper: DONE pin unset below Vcrash).
            result.vcrashMv = mv + step;
            break;
        }
        watchdog.levelMv = mv;
        if (first_faulty_mv == 0) {
            auto faulty = probeFaulty(board, rail, watchdog);
            if (!faulty.ok())
                return faulty.error();
            if (faulty.value())
                first_faulty_mv = mv;
        }
    }
    if (result.vcrashMv == 0)
        panic("{}: no crash level found on {}", result.platform,
              railName(rail));

    // Vmin is the lowest *fault-free* level: one step above the first
    // level where faults manifested (or Vcrash if none ever did).
    result.vminMv =
        first_faulty_mv == 0 ? result.vcrashMv : first_faulty_mv + step;

    board.softReset();
    return result;
}

std::string
SweepResult::describe() const
{
    const std::string &name =
        platform.empty() ? "<unset platform>" : platform;
    if (dieId.empty())
        return name;
    return strFormat("{} (die {})", name, dieId);
}

const SweepPoint &
SweepResult::atVcrash() const
{
    if (points.empty())
        fatal("sweep of {} has no points (the campaign measured no "
              "operable level)",
              describe());
    return points.back();
}

namespace
{

/** Rebuild the derived per-point statistics from raw run counts. */
void
finalizePointStats(SweepPoint &point, std::uint64_t total_bits)
{
    point.runStats = RunningStats();
    for (double count : point.runCounts)
        point.runStats.add(count);
    point.medianFaults = median(point.runCounts);
    point.faultsPerMbit = faultsPerMbit(point.medianFaults, total_bits);
}

/**
 * The deterministic zero-jitter reference readback of one level: the
 * per-BRAM fault map plus flip-polarity accounting, shipped through the
 * serial link. A crash mid-pass restarts the whole pass (it is
 * jitter-free, hence idempotent).
 */
Expected<void>
collectReferenceMaps(SweepPoint &point, const Watchdog &watchdog)
{
    pmbus::Board &board = watchdog.board;
    std::vector<std::uint64_t> observed(fpga::bramWords);
    for (int recovery = 0; recovery <= maxRecoveriesPerRun; ++recovery) {
        board.startReferenceRun();
        point.perBramFaults.assign(board.device().bramCount(), 0);
        FaultSummary summary;
        bool crashed = false;
        for (std::uint32_t b = 0; b < board.device().bramCount(); ++b) {
            if (auto read = board.tryReadBramPacked(b, observed);
                !read.ok()) {
                if (read.code() != Errc::crashDetected)
                    return read.error();
                crashed = true;
                break;
            }
            const FaultSummary bram =
                diffCounts(board.device().bram(b).words(), observed);
            point.perBramFaults[b] = static_cast<int>(bram.totalFaults);
            summary += bram;
        }
        if (!crashed) {
            point.oneToZeroFraction = summary.oneToZeroFraction();
            return {};
        }
        if (auto recovered = watchdog.recover(); !recovered.ok())
            return recovered.error();
    }
    return makeError(Errc::recoveryExhausted,
                     "{}: reference readback at {} mV kept crashing "
                     "through {} recoveries",
                     board.spec().name, watchdog.levelMv,
                     maxRecoveriesPerRun);
}

} // namespace

Expected<SweepResult>
tryRunCriticalSweep(pmbus::Board &board, const SweepOptions &options)
{
    const auto &spec = board.spec();
    UVOLT_TRACE_SCOPE("sweep", [&] {
        return telemetry::TraceArgs{
            {"platform", spec.name},
            {"die", spec.serialNumber},
            {"pattern", options.pattern.label()}};
    });
    sweepMetrics().sweeps.increment();
    const int from =
        options.fromMv > 0 ? options.fromMv : spec.calib.bramVminMv;
    const int down_to = spec.calib.bramVcrashMv;
    if (down_to > from)
        fatal("runCriticalSweep: downTo {} mV above from {} mV", down_to,
              from);

    SweepResult result;
    result.platform = spec.name;
    result.dieId = spec.serialNumber;
    result.pattern = options.pattern;
    result.ambientC = board.ambientC();
    result.runsPerLevel = options.runsPerLevel;

    const ChannelBaseline baseline(board);

    board.softReset();
    fillPattern(board, options.pattern);

    const std::uint64_t total_bits = board.device().totalBits();

    // --- checkpoint resume ----------------------------------------------
    int start_mv = from;
    std::vector<double> partial_counts;
    SweepCheckpoint *checkpoint = options.checkpoint;
    if (checkpoint && checkpoint->valid) {
        if (auto valid = tryValidateCheckpoint(*checkpoint, board,
                                               options, from, down_to);
            !valid.ok())
            return valid.error();
        result.points = checkpoint->completedPoints;
        start_mv = checkpoint->currentLevelMv;
        partial_counts = checkpoint->currentRunCounts;
        board.fastForwardRuns(checkpoint->runsStarted);
        ++result.resilience.checkpointResumes;
        sweepMetrics().checkpointResumes.increment();
    } else if (checkpoint) {
        *checkpoint = makeCheckpoint(board, options, from, down_to);
        checkpoint->currentLevelMv = start_mv;
        checkpoint->valid = true;
    }

    Watchdog watchdog{board, options.pattern, fpga::RailId::VccBram, 0,
                      &result.resilience};

    int levels_this_call = 0;
    bool finished = true;
    for (int mv = start_mv; mv >= down_to; mv -= options.stepMv) {
        if (options.maxLevels > 0 &&
            levels_this_call >= options.maxLevels) {
            // Budget exhausted: leave a resumable checkpoint behind.
            finished = false;
            break;
        }
        if (auto set = board.trySetVccBramMv(mv); !set.ok())
            return set.error();
        if (!board.donePin())
            break; // stepped past Vcrash
        watchdog.levelMv = mv;

        UVOLT_TRACE_SCOPE("sweep.level", [&] {
            return telemetry::TraceArgs{{"mv", std::to_string(mv)}};
        });
        const std::uint64_t level_start_ns = telemetry::nowNs();

        SweepPoint point;
        point.vccBramMv = mv;
        point.runCounts = std::move(partial_counts);
        partial_counts.clear();
        point.runCounts.reserve(
            static_cast<std::size_t>(options.runsPerLevel));

        for (int run = static_cast<int>(point.runCounts.size());
             run < options.runsPerLevel; ++run) {
            board.startRun();
            sweepMetrics().runs.increment();
            auto count = countDeviceFaultsRecoverable(watchdog);
            if (!count.ok())
                return count.error();
            point.runCounts.push_back(
                static_cast<double>(count.value()));
            if (checkpoint) {
                checkpoint->currentRunCounts = point.runCounts;
                checkpoint->runsStarted = board.runsStarted();
            }
        }
        finalizePointStats(point, total_bits);
        point.bramPowerW = board.measureBramPowerW();

        if (options.collectPerBram) {
            if (auto maps = collectReferenceMaps(point, watchdog);
                !maps.ok())
                return maps.error();
        }

        result.points.push_back(std::move(point));
        ++levels_this_call;
        sweepMetrics().levels.increment();
        if (telemetry::Telemetry::enabled()) {
            sweepMetrics().levelMs.observe(
                static_cast<double>(telemetry::nowNs() - level_start_ns) /
                1e6);
        }

        if (checkpoint) {
            checkpoint->completedPoints = result.points;
            checkpoint->currentLevelMv = mv - options.stepMv;
            checkpoint->currentRunCounts.clear();
            checkpoint->runsStarted = board.runsStarted();
            if (!options.checkpointPath.empty())
                saveCheckpointFile(*checkpoint, options.checkpointPath);
        }
    }

    result.truncated = !finished;
    if (checkpoint && finished)
        checkpoint->valid = false; // campaign complete; nothing to resume

    baseline.fold(board, result.resilience);
    board.softReset();
    return result;
}

SweepResult
runCriticalSweep(pmbus::Board &board, const SweepOptions &options)
{
    return tryRunCriticalSweep(board, options).orFatal();
}

} // namespace uvolt::harness
