#include "mem/memory_device.hh"

#include <algorithm>

#include "fpga/platform.hh"
#include "util/logging.hh"

namespace uvolt::mem
{

const char *
technologyName(Technology technology)
{
    switch (technology) {
      case Technology::bram:
        return "bram";
      case Technology::hbm:
        return "hbm";
      case Technology::sram:
        return "sram";
    }
    fatal("unknown memory technology {}", static_cast<int>(technology));
}

double
DeviceTraits::totalMbit() const
{
    return static_cast<double>(totalBits()) /
        static_cast<double>(fpga::bitsPerMbit);
}

int
MemoryDevice::countDomainFaults(std::uint32_t domain,
                                double effective_v) const
{
    return static_cast<int>(
        domainLadders(domain).countFaults(domainWords(domain), effective_v));
}

std::uint64_t
MemoryDevice::countFaults(double effective_v) const
{
    return countIndex_.count(
        contentEpoch(), effective_v, domainCount(), [&](std::uint32_t d) {
            return vmodel::DomainView{domainLadders(d), domainWords(d)};
        });
}

PlaneDevice::PlaneDevice(DeviceTraits traits)
    : MemoryDevice(std::move(traits)),
      planes_(this->traits().domainCount,
              std::vector<std::uint64_t>(this->traits().wordsPerDomain, 0))
{
}

void
PlaneDevice::checkDomain(std::uint32_t domain) const
{
    if (domain >= domainCount())
        fatal("{}: fault domain {} out of pool of {}", name(), domain,
              domainCount());
}

void
PlaneDevice::fill(std::uint16_t lane_pattern)
{
    std::uint64_t word = lane_pattern;
    word |= word << 16;
    word |= word << 32;
    for (auto &plane : planes_)
        std::fill(plane.begin(), plane.end(), word);
    ++epoch_;
}

fpga::WordSpan
PlaneDevice::domainWords(std::uint32_t domain) const
{
    checkDomain(domain);
    return planes_[domain];
}

void
PlaneDevice::assignDomainWords(std::uint32_t domain, fpga::WordSpan words)
{
    checkDomain(domain);
    if (words.size() != planes_[domain].size())
        fatal("{}: {} packed words for a domain of {}", name(),
              words.size(), planes_[domain].size());
    std::copy(words.begin(), words.end(), planes_[domain].begin());
    ++epoch_;
}

std::vector<std::uint64_t>
PlaneDevice::readDomainPacked(std::uint32_t domain,
                              double effective_v) const
{
    const fpga::WordSpan words = domainWords(domain);
    std::vector<std::uint64_t> observed(words.begin(), words.end());
    domainLadders(domain).applyFaults(observed, effective_v);
    return observed;
}

} // namespace uvolt::mem
