#include "mem/catalog.hh"

#include "fpga/platform.hh"
#include "mem/bram_backend.hh"
#include "mem/hbm_backend.hh"
#include "mem/sram_backend.hh"
#include "pmbus/board.hh"

namespace uvolt::mem
{

Technology
technologyOfName(const std::string &name)
{
    if (findHbm(name))
        return Technology::hbm;
    if (findSram(name))
        return Technology::sram;
    return Technology::bram;
}

bool
knownDevice(const std::string &name)
{
    if (findHbm(name) || findSram(name))
        return true;
    for (const auto &spec : fpga::platformCatalog())
        if (spec.name == name)
            return true;
    for (const auto &spec : fpga::extensionPlatformCatalog())
        if (spec.name == name)
            return true;
    return false;
}

DeviceTraits
traitsOfName(const std::string &name)
{
    if (const HbmSpec *hbm = findHbm(name))
        return hbmDeviceTraits(*hbm);
    if (const SramSpec *sram = findSram(name))
        return sramDeviceTraits(*sram);
    return bramDeviceTraits(fpga::findPlatform(name));
}

std::unique_ptr<MemoryDevice>
makeDevice(const std::string &name)
{
    if (const HbmSpec *hbm = findHbm(name))
        return std::make_unique<HbmBackend>(*hbm);
    if (const SramSpec *sram = findSram(name))
        return std::make_unique<SramMorsBackend>(*sram);
    const fpga::PlatformSpec &spec = fpga::findPlatform(name);
    return std::make_unique<BramBackend>(spec,
                                         pmbus::sharedChipModel(spec));
}

void
warmPersonality(const std::string &name)
{
    if (const HbmSpec *hbm = findHbm(name))
        (void)sharedHbmPersonality(*hbm);
    else if (const SramSpec *sram = findSram(name))
        (void)sharedSramPersonality(*sram);
    else
        (void)pmbus::sharedChipModel(fpga::findPlatform(name));
}

} // namespace uvolt::mem
