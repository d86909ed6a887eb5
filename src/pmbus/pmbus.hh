/**
 * @file
 * PMBus command vocabulary and LINEAR16 encoding helpers.
 *
 * The paper drives the on-board TI UCD9248 voltage controller through the
 * Power Management Bus (PMBus) standard via a TI USB adapter (Fig 2). We
 * reproduce the same register-level interface: the host encodes voltages
 * in LINEAR16 (mantissa x 2^exponent with the exponent advertised by
 * VOUT_MODE) and issues PAGE / VOUT_COMMAND / READ_* transactions.
 */

#ifndef UVOLT_PMBUS_PMBUS_HH
#define UVOLT_PMBUS_PMBUS_HH

#include <cstdint>

namespace uvolt::pmbus
{

/** Subset of standard PMBus command codes the experiments use. */
enum class Command : std::uint8_t
{
    Page = 0x00,            ///< select the regulated rail
    Operation = 0x01,       ///< on/off/margin control
    VoutMode = 0x20,        ///< LINEAR16 exponent advertisement
    VoutCommand = 0x21,     ///< voltage setpoint
    StatusWord = 0x79,      ///< summary status flags
    ReadVout = 0x8B,        ///< measured output voltage
    ReadTemperature = 0x8D, ///< on-board temperature sensor
    ReadPout = 0x96,        ///< measured output power
};

/** STATUS_WORD bits (subset). */
enum StatusBits : std::uint16_t
{
    statusNone = 0,
    statusVoutFault = 1u << 15, ///< output voltage fault/warning
    statusOff = 1u << 6,        ///< output disabled
};

/** LINEAR16 exponent used by the emulated UCD9248 (2^-12 volts/LSB). */
constexpr int linear16Exponent = -12;

/** Encode volts into a LINEAR16 mantissa for the fixed exponent. */
std::uint16_t encodeLinear16(double volts);

/** Decode a LINEAR16 mantissa back to volts. */
double decodeLinear16(std::uint16_t mantissa);

} // namespace uvolt::pmbus

#endif // UVOLT_PMBUS_PMBUS_HH
