/**
 * @file
 * UART-style serial readback link between the FPGA and the host.
 *
 * The paper transfers BRAM contents to the host over a serial interface
 * (built from fabric logic on VC707/KC705, driven by the ARM core on
 * ZC702) and "verifies and validates that this interface is entirely
 * reliable at any VCCBRAM level". In the quiet lab we model exactly that
 * contract: frames are CRC-16 protected and always verify. In a harsh
 * environment (an attached FaultInjector) frames can arrive corrupted;
 * transferReliable() then provides the validated contract the harness
 * depends on via CRC-checked retransmission with bounded attempts and
 * exponential backoff, exposing per-channel error/retry statistics.
 */

#ifndef UVOLT_PMBUS_SERIAL_LINK_HH
#define UVOLT_PMBUS_SERIAL_LINK_HH

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hh"

namespace uvolt::pmbus
{

class FaultInjector;

/** CRC-16/CCITT-FALSE over a byte stream. */
std::uint16_t crc16(std::span<const std::uint8_t> bytes);

/** A framed payload as it arrives at the host. */
struct SerialFrame
{
    std::vector<std::uint8_t> payload;
    std::uint16_t crc;

    /** Whether the payload matches its checksum. */
    bool verified() const { return crc16(payload) == crc; }
};

/** Error/retry counters of the readback channel. */
struct LinkStats
{
    std::uint64_t framesSent = 0;   ///< raw frames on the wire
    std::uint64_t bytesSent = 0;    ///< payload bytes on the wire
    std::uint64_t crcErrors = 0;    ///< frames the host rejected
    std::uint64_t retransmits = 0;  ///< extra attempts that were needed
    std::uint64_t exhausted = 0;    ///< transfers that gave up entirely
    std::uint64_t backoffTicks = 0; ///< virtual backoff time spent
};

/** The CRC-verified readback channel. */
class SerialLink
{
  public:
    /** Transmit one raw frame; returns the frame the host receives. */
    SerialFrame transfer(std::span<const std::uint8_t> payload);

    /**
     * Transmit until a frame arrives verified, retransmitting with
     * exponential backoff up to maxAttempts(). Error linkExhausted when
     * every attempt arrives corrupted. A frame that arrives intact
     * holds exactly @a payload's bytes, so it verifies by construction
     * and the caller's buffer IS the host's copy. Only a frame the
     * injector corrupts in flight is copied, garbled and checked
     * against the sender's CRC.
     */
    Expected<void> transferReliable(std::span<const std::uint8_t> payload);

    /** Wire the harsh environment into the channel (nullptr = quiet). */
    void attachInjector(FaultInjector *injector) { injector_ = injector; }

    /** Bound on transferReliable() attempts (>= 1). */
    void setMaxAttempts(int attempts);
    int maxAttempts() const { return maxAttempts_; }

    /** Per-channel error/retry statistics. */
    const LinkStats &stats() const { return stats_; }

    /** Frames transferred so far (experiment bookkeeping). */
    std::uint64_t framesSent() const { return stats_.framesSent; }

    /** Payload bytes transferred so far. */
    std::uint64_t bytesSent() const { return stats_.bytesSent; }

    /** Serialize sixteen-bit words little-endian for transmission. */
    static std::vector<std::uint8_t>
    packWords(const std::vector<std::uint16_t> &words);

  private:
    /** Count one frame of @a bytes on the wire; true when the injector
     *  corrupts it in flight. */
    bool send(std::size_t bytes);

    LinkStats stats_;
    FaultInjector *injector_ = nullptr;
    int maxAttempts_ = 8;
};

} // namespace uvolt::pmbus

#endif // UVOLT_PMBUS_SERIAL_LINK_HH
