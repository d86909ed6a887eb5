#include "pmbus/pmbus.hh"

#include <cmath>

namespace uvolt::pmbus
{

std::uint16_t
encodeLinear16(double volts)
{
    if (volts < 0.0)
        volts = 0.0;
    const double scaled = std::round(std::ldexp(volts, -linear16Exponent));
    return scaled > 65535.0 ? 65535u : static_cast<std::uint16_t>(scaled);
}

double
decodeLinear16(std::uint16_t mantissa)
{
    return std::ldexp(static_cast<double>(mantissa), linear16Exponent);
}

} // namespace uvolt::pmbus
