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

std::uint64_t
MemoryDevice::countFaults(double effective_v) const
{
    return countMemo_.get(contentEpoch(), effective_v, [&] {
        std::uint64_t total = 0;
        for (std::uint32_t d = 0; d < domainCount(); ++d)
            total += static_cast<std::uint64_t>(
                countDomainFaults(d, effective_v));
        return total;
    });
}

PlaneDevice::PlaneDevice(DeviceTraits traits)
    : MemoryDevice(std::move(traits)), ladders_(this->traits().domainCount),
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

int
PlaneDevice::countDomainFaults(std::uint32_t domain,
                               double effective_v) const
{
    const fpga::WordSpan words = domainWords(domain);
    return static_cast<int>(ladders_[domain].countFaults(words, effective_v));
}

std::vector<std::uint64_t>
PlaneDevice::readDomainPacked(std::uint32_t domain,
                              double effective_v) const
{
    const fpga::WordSpan words = domainWords(domain);
    std::vector<std::uint64_t> observed(words.begin(), words.end());
    ladders_[domain].applyFaults(observed, effective_v);
    return observed;
}

} // namespace uvolt::mem
