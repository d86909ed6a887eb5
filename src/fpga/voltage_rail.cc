#include "fpga/voltage_rail.hh"

#include <algorithm>

#include "util/logging.hh"

namespace uvolt::fpga
{

const char *
railName(RailId id)
{
    switch (id) {
      case RailId::VccBram:
        return "VCCBRAM";
      case RailId::VccInt:
        return "VCCINT";
      case RailId::VccAux:
        return "VCCAUX";
    }
    panic("railName: invalid RailId");
}

VoltageRail::VoltageRail(RailId id, int nominal_mv)
    : id_(id), nominalMv_(nominal_mv), currentMv_(nominal_mv)
{
    if (nominal_mv <= 0)
        fatal("rail {} nominal must be positive, got {} mV",
              railName(id), nominal_mv);
}

void
VoltageRail::setMillivolts(int mv)
{
    currentMv_ = std::clamp(mv, 0, nominalMv_ + nominalMv_ / 5);
}

} // namespace uvolt::fpga
