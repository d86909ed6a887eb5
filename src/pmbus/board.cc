#include "pmbus/board.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <mutex>

#include "fpga/fault_domain.hh"
#include "power/power_model.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace uvolt::pmbus
{

namespace
{

struct BoardMetrics
{
    telemetry::Counter &setpointWrites =
        telemetry::Registry::global().counter("pmbus.setpoint.writes");
    telemetry::Counter &setpointRetries =
        telemetry::Registry::global().counter("pmbus.setpoint.retries");
    telemetry::Counter &verifyMismatches = telemetry::Registry::global()
        .counter("pmbus.setpoint.verify_mismatches");
    telemetry::Counter &setpointExhausted =
        telemetry::Registry::global().counter("pmbus.setpoint.exhausted");
    telemetry::Counter &bramProbes =
        telemetry::Registry::global().counter("board.bram_probes");
    telemetry::Counter &crashesDetected =
        telemetry::Registry::global().counter("board.crashes_detected");
};

BoardMetrics &
boardMetrics()
{
    static BoardMetrics metrics;
    return metrics;
}

} // namespace

std::shared_ptr<const vmodel::ChipFaultModel>
sharedChipModel(const fpga::PlatformSpec &spec,
                const vmodel::VariationParams &params)
{
    // The model is a pure function of this key, so a single-flight map
    // keyed by it is safe to share process-wide; holding the lock across
    // construction means concurrent first requests for the same die
    // synthesize the weak-cell map exactly once.
    const std::string key = strFormat(
        "{}|{}|{}|{}|{}|{}|{}|{}", spec.name, spec.serialNumber,
        spec.bramCount, spec.columnHeight, params.sigmaLn,
        params.spatialWeight, params.weakColumnShare,
        params.meanWeakColumns);

    static std::mutex mutex;
    static std::map<std::string,
                    std::shared_ptr<const vmodel::ChipFaultModel>> cache;
    std::lock_guard lock(mutex);
    auto &slot = cache[key];
    if (!slot) {
        slot = std::make_shared<const vmodel::ChipFaultModel>(
            spec, fpga::Floorplan::columnGrid(spec.bramCount,
                                              spec.columnHeight),
            params);
    }
    return slot;
}

Board::Board(const fpga::PlatformSpec &spec,
             const vmodel::VariationParams &params)
    : Board(spec, std::make_shared<const vmodel::ChipFaultModel>(
                      spec, fpga::Floorplan::columnGrid(
                                spec.bramCount, spec.columnHeight),
                      params))
{
}

Board::Board(const fpga::PlatformSpec &spec,
             std::shared_ptr<const vmodel::ChipFaultModel> model)
    : device_(spec), faults_(std::move(model)),
      regulator_([this] { return effectiveAmbientC(); }),
      runRng_(combineSeeds(hashSeed(spec.serialNumber),
                           hashSeed("run-jitter")))
{
    pageBram_ = regulator_.addPage("VCCBRAM", spec.vnomMv, [this](int mv) {
        device_.rail(fpga::RailId::VccBram).setMillivolts(mv);
    });
    pageInt_ = regulator_.addPage("VCCINT", spec.vnomMv, [this](int mv) {
        device_.rail(fpga::RailId::VccInt).setMillivolts(mv);
    });
}

void
Board::attachNoise(const NoiseConfig &config)
{
    injector_ = std::make_unique<FaultInjector>(config);
    link_.attachInjector(injector_.get());
    regulator_.attachInjector(injector_.get());
}

void
Board::setMaxPmbusAttempts(int attempts)
{
    if (attempts < 1)
        fatal("PMBus path needs at least one attempt, got {}", attempts);
    maxPmbusAttempts_ = attempts;
}

Expected<void>
Board::writeVerifiedSetpoint(int page, int mv)
{
    UVOLT_TRACE_SCOPE("pmbus.setpoint", [&] {
        return telemetry::TraceArgs{
            {"page", std::to_string(page)},
            {"mv", std::to_string(mv)}};
    });
    boardMetrics().setpointWrites.increment();
    const int expected_mv = quantizeSetpointMv(mv);
    const std::uint16_t code = encodeLinear16(mv / 1000.0);
    for (int attempt = 0; attempt < maxPmbusAttempts_; ++attempt) {
        if (attempt > 0) {
            ++pmbusStats_.retries;
            boardMetrics().setpointRetries.increment();
        }
        ++pmbusStats_.transactions;
        if (!regulator_.tryWriteByte(Command::Page,
                                     static_cast<std::uint8_t>(page)))
            continue;
        ++pmbusStats_.transactions;
        if (!regulator_.tryWriteWord(Command::VoutCommand, code))
            continue;
        // Verify-after-write: read the latched setpoint back and make
        // sure the DAC holds the commanded code, not a jittered one.
        std::uint16_t readback = 0;
        ++pmbusStats_.transactions;
        if (!regulator_.tryReadWord(Command::ReadVout, readback))
            continue;
        const int latched_mv = quantizeSetpointMv(static_cast<int>(
            decodeLinear16(readback) * 1000.0 + 0.5));
        if (latched_mv == expected_mv)
            return {};
        ++pmbusStats_.verifyMismatches;
        boardMetrics().verifyMismatches.increment();
    }
    ++pmbusStats_.exhausted;
    boardMetrics().setpointExhausted.increment();
    return makeError(Errc::pmbusExhausted,
                     "{}: page {} setpoint {} mV not acknowledged and "
                     "verified within {} attempts",
                     spec().name, page, mv, maxPmbusAttempts_);
}

Expected<void>
Board::trySetVccBramMv(int mv)
{
    return writeVerifiedSetpoint(pageBram_, mv);
}

Expected<void>
Board::trySetVccIntMv(int mv)
{
    return writeVerifiedSetpoint(pageInt_, mv);
}

void
Board::setVccBramMv(int mv)
{
    trySetVccBramMv(mv).orFatal();
}

void
Board::setVccIntMv(int mv)
{
    trySetVccIntMv(mv).orFatal();
}

int
Board::vccBramMv() const
{
    return device_.rail(fpga::RailId::VccBram).millivolts();
}

double
Board::effectiveAmbientC() const
{
    return ambientC_ + (injector_ ? injector_->tempDriftC() : 0.0);
}

void
Board::softReset()
{
    // Reconfiguration restores the DONE pin before the rails come back,
    // so the setpoint writes below run on an operational board.
    forcedCrash_ = false;
    crashCountdown_ = -1;
    setVccBramMv(spec().vnomMv);
    setVccIntMv(spec().vnomMv);
    runJitterV_ = 0.0;
}

void
Board::armCrashSchedule() const
{
    crashCountdown_ = injector_
        ? injector_->armCrash(vccBramMv(), spec().calib.bramVcrashMv,
                              device_.bramCount())
        : -1;
}

bool
Board::crashFires() const
{
    if (crashCountdown_ < 0)
        return false;
    if (crashCountdown_-- > 0)
        return false;
    forcedCrash_ = true;
    injector_->recordSpuriousCrash();
    return true;
}

void
Board::startRun()
{
    runJitterV_ = runRng_.gaussian(0.0, spec().calib.runJitterMv / 1000.0);
    ++runsStarted_;
    if (injector_)
        injector_->nextTempDriftC();
    armCrashSchedule();
}

void
Board::startReferenceRun()
{
    runJitterV_ = 0.0;
    armCrashSchedule();
}

void
Board::resumeRun(double jitter_v)
{
    runJitterV_ = jitter_v;
    // A fresh crash schedule is drawn: the retried run faces fresh luck,
    // not a replay of the crash that interrupted it.
    armCrashSchedule();
}

void
Board::fastForwardRuns(std::uint64_t runs)
{
    if (runsStarted_ > runs)
        fatal("cannot fast-forward the run stream backwards: at run {}, "
              "asked for {}",
              runsStarted_, runs);
    while (runsStarted_ < runs)
        startRun();
}

bool
Board::internalLogicFaulty() const
{
    return device_.rail(fpga::RailId::VccInt).millivolts() <
        spec().calib.intVminMv;
}

double
Board::effectiveVoltage() const
{
    return faults_->effectiveVoltage(vccBramMv() / 1000.0,
                                     effectiveAmbientC(), runJitterV_);
}

Expected<void>
Board::tryReadBramPacked(std::uint32_t bram,
                         std::span<std::uint64_t> out) const
{
    if (out.size() != static_cast<std::size_t>(fpga::bramWords))
        fatal("tryReadBramPacked: plane of {} words, a BRAM has {}",
              out.size(), fpga::bramWords);
    boardMetrics().bramProbes.increment();
    if (!donePin() || crashFires()) {
        boardMetrics().crashesDetected.increment();
        return makeError(Errc::crashDetected,
                         "{}: readback of BRAM {} with DONE pin low "
                         "(configuration lost at {} mV)",
                         spec().name, bram, vccBramMv());
    }
    const fpga::WordSpan written = device_.bram(bram).words();
    std::copy(written.begin(), written.end(), out.begin());
    faults_->applyFaults(out, bram, effectiveVoltage());
    // Ship through the CRC-verified serial path, as the real setup does.
    // On a little-endian host the plane's memory IS the wire stream.
    if constexpr (std::endian::native == std::endian::little)
        return link_.transferReliable(
            {reinterpret_cast<const std::uint8_t *>(out.data()),
             out.size_bytes()});
    else
        return link_.transferReliable(SerialLink::packWordBytes(out));
}

Expected<std::vector<std::uint64_t>>
Board::tryReadBramPacked(std::uint32_t bram) const
{
    std::vector<std::uint64_t> observed(fpga::bramWords);
    if (auto read = tryReadBramPacked(bram, observed); !read.ok())
        return read.error();
    return observed;
}

Expected<int>
Board::tryCountBramFaults(std::uint32_t bram) const
{
    boardMetrics().bramProbes.increment();
    if (!donePin() || crashFires()) {
        boardMetrics().crashesDetected.increment();
        return makeError(Errc::crashDetected,
                         "{}: fault count of BRAM {} with DONE pin low "
                         "(configuration lost at {} mV)",
                         spec().name, bram, vccBramMv());
    }
    return faults_->countBramFaults(device_.bram(bram), bram,
                                    effectiveVoltage());
}

Expected<std::uint64_t>
Board::tryCountDeviceFaults() const
{
    const std::uint32_t count = device_.bramCount();
    if (crashCountdown_ >= 0) {
        // An injected spurious-crash schedule is armed: replicate the
        // per-BRAM probe loop exactly so the countdown stream and the
        // mid-pass crash point match a caller that probed one BRAM at a
        // time.
        std::uint64_t total = 0;
        for (std::uint32_t b = 0; b < count; ++b) {
            const auto probed = tryCountBramFaults(b);
            if (!probed.ok())
                return probed.error();
            total += static_cast<std::uint64_t>(probed.value());
        }
        return total;
    }

    boardMetrics().bramProbes.add(count);
    if (!donePin()) {
        boardMetrics().crashesDetected.increment();
        return makeError(Errc::crashDetected,
                         "{}: device-wide fault count with DONE pin low "
                         "(configuration lost at {} mV)",
                         spec().name, vccBramMv());
    }
    return countIndex_.count(
        device_.contentEpoch(), effectiveVoltage(), count,
        [&](std::uint32_t b) {
            return vmodel::DomainView{faults_->ladders(b),
                                      device_.bram(b).words()};
        });
}

double
Board::measureBramPowerW() const
{
    power::RailPowerModel model(spec());
    return model.bramPower(vccBramMv() / 1000.0);
}

} // namespace uvolt::pmbus
