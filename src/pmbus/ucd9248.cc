#include "pmbus/ucd9248.hh"

#include <algorithm>
#include <cmath>

#include "pmbus/fault_injector.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace uvolt::pmbus
{

namespace
{

struct TxnMetrics
{
    telemetry::Counter &attempts =
        telemetry::Registry::global().counter("pmbus.txn.attempts");
    telemetry::Counter &nacks =
        telemetry::Registry::global().counter("pmbus.txn.nacks");
    telemetry::Counter &mislatches =
        telemetry::Registry::global().counter("pmbus.txn.mislatches");
};

TxnMetrics &
txnMetrics()
{
    static TxnMetrics metrics;
    return metrics;
}

} // namespace

int
quantizeSetpointMv(int mv)
{
    const int half = voutStepMv / 2;
    return ((mv + (mv >= 0 ? half : -half)) / voutStepMv) * voutStepMv;
}

Ucd9248::Ucd9248(std::function<double()> temperature_source)
    : temperatureSource_(std::move(temperature_source))
{
    if (!temperatureSource_)
        fatal("Ucd9248 requires a temperature source");
}

int
Ucd9248::addPage(const char *label, int nominal_mv,
                 std::function<void(int mv)> apply)
{
    RegulatorPage page;
    page.label = label;
    page.nominalMv = nominal_mv;
    page.setpointMv = nominal_mv;
    page.apply = std::move(apply);
    pages_.push_back(std::move(page));
    return static_cast<int>(pages_.size()) - 1;
}

RegulatorPage &
Ucd9248::currentPage()
{
    if (pages_.empty())
        fatal("UCD9248 has no configured pages");
    return pages_[static_cast<std::size_t>(page_)];
}

const RegulatorPage &
Ucd9248::currentPage() const
{
    return const_cast<Ucd9248 *>(this)->currentPage();
}

void
Ucd9248::writeByte(Command command, std::uint8_t value)
{
    switch (command) {
      case Command::Page:
        if (value >= pages_.size())
            fatal("PAGE write selects page {} of {}", value, pages_.size());
        page_ = value;
        return;
      case Command::Operation:
        currentPage().enabled = (value & 0x80) != 0;
        if (currentPage().apply) {
            currentPage().apply(currentPage().enabled
                                    ? currentPage().setpointMv : 0);
        }
        return;
      default:
        fatal("unsupported PMBus byte write, command 0x{:02x}",
              static_cast<unsigned>(command));
    }
}

void
Ucd9248::writeWord(Command command, std::uint16_t value)
{
    switch (command) {
      case Command::VoutCommand: {
        const double volts = decodeLinear16(value);
        auto &page = currentPage();
        page.setpointMv = quantizeSetpointMv(
            static_cast<int>(std::lround(volts * 1000.0)));
        if (page.enabled && page.apply)
            page.apply(page.setpointMv);
        return;
      }
      default:
        fatal("unsupported PMBus word write, command 0x{:02x}",
              static_cast<unsigned>(command));
    }
}

bool
Ucd9248::tryWriteByte(Command command, std::uint8_t value)
{
    txnMetrics().attempts.increment();
    if (injector_ && injector_->nackThisTransaction()) {
        txnMetrics().nacks.increment();
        return false;
    }
    writeByte(command, value);
    return true;
}

bool
Ucd9248::tryWriteWord(Command command, std::uint16_t value)
{
    txnMetrics().attempts.increment();
    if (injector_ && injector_->nackThisTransaction()) {
        txnMetrics().nacks.increment();
        return false;
    }
    if (command == Command::VoutCommand && injector_) {
        // The harsh environment can make the DAC latch one step off the
        // commanded code; verify-after-write is the caller's defence.
        const int commanded_mv = quantizeSetpointMv(
            static_cast<int>(std::lround(decodeLinear16(value) * 1000.0)));
        const int latched_mv =
            injector_->perturbSetpoint(commanded_mv, voutStepMv);
        if (latched_mv != commanded_mv) {
            txnMetrics().mislatches.increment();
            writeWord(command,
                      encodeLinear16(std::max(latched_mv, 0) / 1000.0));
            return true;
        }
    }
    writeWord(command, value);
    return true;
}

bool
Ucd9248::tryReadWord(Command command, std::uint16_t &value_out) const
{
    txnMetrics().attempts.increment();
    if (injector_ && injector_->nackThisTransaction()) {
        txnMetrics().nacks.increment();
        return false;
    }
    value_out = readWord(command);
    return true;
}

std::uint8_t
Ucd9248::readByte(Command command) const
{
    switch (command) {
      case Command::Page:
        return static_cast<std::uint8_t>(page_);
      case Command::VoutMode:
        return encodeVoutMode();
      default:
        fatal("unsupported PMBus byte read, command 0x{:02x}",
              static_cast<unsigned>(command));
    }
}

std::uint16_t
Ucd9248::readWord(Command command) const
{
    switch (command) {
      case Command::VoutCommand:
      case Command::ReadVout:
        return encodeLinear16(currentPage().setpointMv / 1000.0);
      case Command::ReadTemperature:
        // LINEAR11-style readings are overkill here; report whole degC.
        return static_cast<std::uint16_t>(
            std::lround(temperatureSource_()));
      case Command::StatusWord: {
        std::uint16_t status = statusNone;
        if (!currentPage().enabled)
            status |= statusOff;
        return status;
      }
      default:
        fatal("unsupported PMBus word read, command 0x{:02x}",
              static_cast<unsigned>(command));
    }
}

} // namespace uvolt::pmbus
