#include "harness/governor.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace uvolt::harness
{

namespace
{

/** Clean steps at the hold level before re-probing lower (ITD chase). */
constexpr int reprobeAfterCleanSteps = 8;

struct GovernorMetrics
{
    telemetry::Counter &steps =
        telemetry::Registry::global().counter("governor.steps");
    telemetry::Counter &backoffs =
        telemetry::Registry::global().counter("governor.backoffs");
    telemetry::Counter &heldUncertain =
        telemetry::Registry::global().counter("governor.held_uncertain");
    telemetry::Counter &recoveries =
        telemetry::Registry::global().counter("governor.recoveries");
    telemetry::Gauge &setpointMv =
        telemetry::Registry::global().gauge("governor.setpoint_mv");
};

GovernorMetrics &
governorMetrics()
{
    static GovernorMetrics metrics;
    return metrics;
}

} // namespace

VoltageGovernor::VoltageGovernor(pmbus::Board &board, const Fvm &fvm,
                                 const std::vector<std::uint32_t> &reserved,
                                 const GovernorConfig &config)
    : board_(board), config_(config)
{
    if (config_.canaryCount <= 0)
        fatal("governor needs at least one canary BRAM");

    std::vector<bool> taken(board_.device().bramCount(), false);
    for (std::uint32_t physical : reserved) {
        if (physical >= taken.size())
            fatal("reserved BRAM {} outside the device pool", physical);
        taken[physical] = true;
    }

    // Most vulnerable spare BRAMs first: they fault before the payload.
    const auto order = fvm.bramsByReliability();
    for (auto it = order.rbegin();
         it != order.rend() &&
         canaries_.size() < static_cast<std::size_t>(config_.canaryCount);
         ++it) {
        if (!taken[*it])
            canaries_.push_back(*it);
    }
    if (canaries_.size() < static_cast<std::size_t>(config_.canaryCount))
        fatal("governor: only {} spare BRAMs for {} canaries",
              canaries_.size(), config_.canaryCount);

    refillCanaries();

    setpointMv_ = board_.vccBramMv();
    floorMv_ = config_.floorMv > 0 ? config_.floorMv
                                   : board_.spec().calib.bramVcrashMv;
}

void
VoltageGovernor::refillCanaries()
{
    for (std::uint32_t canary : canaries_)
        board_.device().bram(canary).fill(0xFFFF);
}

Expected<int>
VoltageGovernor::countCanaryFaults()
{
    board_.startRun();
    int faults = 0;
    for (std::uint32_t canary : canaries_) {
        // Canaries are read over the serial link like any deployed
        // monitor would, so a harsh environment can make the reading
        // itself uncertain — which the control law must survive.
        if (auto read = board_.tryReadBramPacked(canary, plane_);
            !read.ok())
            return read.error();
        // Canaries hold all ones: every cleared bit is a fault.
        for (std::uint64_t word : plane_)
            faults += std::popcount(~word);
    }
    return faults;
}

GovernorStep
VoltageGovernor::step()
{
    UVOLT_TRACE_SCOPE("governor.step", [&] {
        return telemetry::TraceArgs{
            {"setpoint_mv", std::to_string(setpointMv_)}};
    });
    governorMetrics().steps.increment();
    GovernorStep record;
    const std::uint64_t retransmits_before =
        board_.link().stats().retransmits;
    auto faults = countCanaryFaults();
    record.linkRetries =
        board_.link().stats().retransmits - retransmits_before;

    if (!faults.ok()) {
        if (faults.code() == Errc::crashDetected) {
            // The configuration died under us. Reconfigure, re-arm the
            // canaries (their fill comes back with the bitstream), and
            // back off by the guard distance before trusting any level
            // again.
            board_.softReset();
            refillCanaries();
            holdMv_ = setpointMv_ + config_.guardSteps * config_.stepMv;
            cleanStreak_ = 0;
            setpointMv_ = std::min(holdMv_, board_.spec().vnomMv);
            record.backedOff = true;
            record.health = GovernorHealth::recovered;
            governorMetrics().backoffs.increment();
            governorMetrics().recoveries.increment();
        } else {
            // Uncertain reading (the link gave up): a missing answer is
            // not a clean answer. Hold the present level; never descend
            // on uncertainty.
            cleanStreak_ = 0;
            record.health = GovernorHealth::heldUncertain;
            governorMetrics().heldUncertain.increment();
        }
        board_.setVccBramMv(setpointMv_);
        record.commandedMv = setpointMv_;
        governorMetrics().setpointMv.set(setpointMv_);
        return record;
    }
    record.canaryFaults = faults.value();

    static_assert(reprobeAfterCleanSteps > 1);
    if (record.canaryFaults > 0) {
        // Back off and hold: don't descend to this level again until a
        // long clean streak suggests conditions changed (ITD).
        holdMv_ = setpointMv_ + config_.guardSteps * config_.stepMv;
        cleanStreak_ = 0;
        setpointMv_ = std::min(holdMv_, board_.spec().vnomMv);
        record.backedOff = true;
        governorMetrics().backoffs.increment();
    } else {
        ++cleanStreak_;
        int floor = std::max(floorMv_, holdMv_);
        if (cleanStreak_ >= reprobeAfterCleanSteps && holdMv_ > 0) {
            // Conditions may have improved; forget the hold once.
            holdMv_ = 0;
            cleanStreak_ = 0;
            floor = floorMv_;
        }
        setpointMv_ = std::max(setpointMv_ - config_.stepMv, floor);
    }
    board_.setVccBramMv(setpointMv_);
    record.commandedMv = setpointMv_;
    governorMetrics().setpointMv.set(setpointMv_);
    return record;
}

std::vector<GovernorStep>
VoltageGovernor::settle(int max_steps)
{
    std::vector<GovernorStep> trace;
    int previous = -1;
    for (int i = 0; i < max_steps; ++i) {
        trace.push_back(step());
        const int commanded = trace.back().commandedMv;
        if (commanded == previous && !trace.back().backedOff &&
            trace.back().canaryFaults == 0 &&
            trace.back().health == GovernorHealth::ok) {
            break;
        }
        previous = commanded;
    }
    return trace;
}

} // namespace uvolt::harness
