#include "mem/bram_backend.hh"

#include "util/logging.hh"

namespace uvolt::mem
{

DeviceTraits
bramDeviceTraits(const fpga::PlatformSpec &spec)
{
    DeviceTraits traits;
    traits.name = spec.name;
    traits.dieId = spec.serialNumber;
    traits.technology = Technology::bram;
    traits.domainCount = spec.bramCount;
    traits.wordsPerDomain = static_cast<std::uint32_t>(fpga::bramWords);
    traits.columnHeight = spec.columnHeight;
    traits.vnomMv = spec.vnomMv;
    traits.vminMv = spec.calib.bramVminMv;
    traits.vcrashMv = spec.calib.bramVcrashMv;
    traits.runJitterMv = spec.calib.runJitterMv;
    return traits;
}

BramBackend::BramBackend(
    const fpga::PlatformSpec &spec,
    std::shared_ptr<const vmodel::ChipFaultModel> model)
    : MemoryDevice(bramDeviceTraits(spec)),
      device_(std::make_unique<fpga::Device>(spec)),
      model_(std::move(model)), power_(spec)
{
    if (!model_)
        fatal("BramBackend: null chip fault model for {}", spec.name);
}

void
BramBackend::fill(std::uint16_t lane_pattern)
{
    device_->fillAll(lane_pattern);
}

fpga::WordSpan
BramBackend::domainWords(std::uint32_t domain) const
{
    return device_->bram(domain).words();
}

void
BramBackend::assignDomainWords(std::uint32_t domain, fpga::WordSpan words)
{
    device_->bram(domain).assignWords(words);
}

std::uint64_t
BramBackend::contentEpoch() const
{
    return device_->contentEpoch();
}

double
BramBackend::effectiveVoltage(double rail_v, double temp_c,
                              double jitter_v) const
{
    return model_->effectiveVoltage(rail_v, temp_c, jitter_v);
}

int
BramBackend::countDomainFaultsReference(std::uint32_t domain,
                                        double effective_v) const
{
    return model_->countBramFaultsReference(device_->bram(domain), domain,
                                            effective_v);
}

const vmodel::DomainLadders &
BramBackend::domainLadders(std::uint32_t domain) const
{
    return model_->ladders(domain);
}

std::vector<std::uint64_t>
BramBackend::readDomainPacked(std::uint32_t domain,
                              double effective_v) const
{
    return model_->readBramPacked(device_->bram(domain), domain,
                                  effective_v);
}

double
BramBackend::railPowerW(double rail_v) const
{
    return power_.bramPower(rail_v);
}

std::unique_ptr<MemoryDevice>
BramBackend::clone() const
{
    // fpga::Device is non-copyable (its BRAMs share its epoch counter),
    // so a clone builds a fresh device and copies content block by
    // block; Bram copy-assignment carries data + parity and bumps the
    // clone's own counter, never aliasing ours.
    auto copy = std::make_unique<BramBackend>(device_->spec(), model_);
    for (std::uint32_t b = 0; b < device_->bramCount(); ++b)
        copy->device_->bram(b) = device_->bram(b);
    return copy;
}

} // namespace uvolt::mem
