#include "pmbus/serial_link.hh"

#include <algorithm>
#include <array>

#include "pmbus/fault_injector.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace uvolt::pmbus
{

namespace
{

/**
 * CRC-16/CCITT-FALSE slicing-by-8 tables. Table 0 is the classic
 * one-byte step table: entry b is the CRC register contribution of
 * shifting byte b through the bitwise feedback loop. Table k advances
 * table k-1 through one further zero byte, so T[k][b] is "byte b
 * followed by k zero bytes" — which lets the hot loop fold 8 message
 * bytes per iteration with 8 independent lookups (no serial dependency
 * between them, only the final XOR chain). All tables derive at compile
 * time from the same poly/shift definition the old bitwise loop used,
 * so crc16() values are unchanged.
 */
constexpr std::array<std::array<std::uint16_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint16_t, 256>, 8> tables{};
    for (int byte = 0; byte < 256; ++byte) {
        std::uint16_t crc = static_cast<std::uint16_t>(byte << 8);
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & 0x8000)
                crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
            else
                crc = static_cast<std::uint16_t>(crc << 1);
        }
        tables[0][static_cast<std::size_t>(byte)] = crc;
    }
    for (int k = 1; k < 8; ++k) {
        for (int byte = 0; byte < 256; ++byte) {
            const std::uint16_t prev =
                tables[static_cast<std::size_t>(k - 1)]
                      [static_cast<std::size_t>(byte)];
            tables[static_cast<std::size_t>(k)]
                  [static_cast<std::size_t>(byte)] =
                static_cast<std::uint16_t>(
                    (prev << 8) ^ tables[0][prev >> 8]);
        }
    }
    return tables;
}

constexpr std::array<std::array<std::uint16_t, 256>, 8> crcTables =
    makeCrcTables();

/** Registry handles, resolved once (registration takes a lock). */
struct LinkMetrics
{
    telemetry::Counter &frames =
        telemetry::Registry::global().counter("pmbus.link.frames");
    telemetry::Counter &bytes =
        telemetry::Registry::global().counter("pmbus.link.bytes");
    telemetry::Counter &crcErrors =
        telemetry::Registry::global().counter("pmbus.link.crc_errors");
    telemetry::Counter &retransmits =
        telemetry::Registry::global().counter("pmbus.link.retransmits");
    telemetry::Counter &exhausted =
        telemetry::Registry::global().counter("pmbus.link.exhausted");
};

LinkMetrics &
linkMetrics()
{
    static LinkMetrics metrics;
    return metrics;
}

/** Line noise flips a byte in flight; the CRC no longer matches. */
void
garble(std::vector<std::uint8_t> &payload)
{
    payload[payload.size() / 2] ^= 0xFF;
}

} // namespace

std::uint16_t
crc16(std::span<const std::uint8_t> bytes)
{
    // CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection.
    // Eight bytes per iteration: the running register only reaches the
    // first two bytes of each block, the rest fold in unconditioned.
    std::uint16_t crc = 0xFFFF;
    std::size_t i = 0;
    const std::uint8_t *data = bytes.data();
    for (; i + 8 <= bytes.size(); i += 8) {
        crc = static_cast<std::uint16_t>(
            crcTables[7][(data[i] ^ (crc >> 8)) & 0xFF] ^
            crcTables[6][(data[i + 1] ^ crc) & 0xFF] ^
            crcTables[5][data[i + 2]] ^ crcTables[4][data[i + 3]] ^
            crcTables[3][data[i + 4]] ^ crcTables[2][data[i + 5]] ^
            crcTables[1][data[i + 6]] ^ crcTables[0][data[i + 7]]);
    }
    for (; i < bytes.size(); ++i) {
        crc = static_cast<std::uint16_t>(
            (crc << 8) ^ crcTables[0][((crc >> 8) ^ data[i]) & 0xFF]);
    }
    return crc;
}

bool
SerialLink::send(std::size_t bytes)
{
    ++stats_.framesSent;
    stats_.bytesSent += bytes;
    linkMetrics().frames.increment();
    linkMetrics().bytes.add(bytes);
    return injector_ && bytes > 0 && injector_->corruptThisFrame();
}

SerialFrame
SerialLink::transfer(std::span<const std::uint8_t> payload)
{
    SerialFrame frame{{payload.begin(), payload.end()}, crc16(payload)};
    if (send(payload.size()))
        garble(frame.payload);
    return frame;
}

Expected<void>
SerialLink::transferReliable(std::span<const std::uint8_t> payload)
{
    for (int attempt = 0; attempt < maxAttempts_; ++attempt) {
        if (attempt > 0) {
            ++stats_.retransmits;
            linkMetrics().retransmits.increment();
            // Exponential backoff in virtual line-time units.
            stats_.backoffTicks += 1ULL << std::min(attempt, 16);
        }
        // An intact frame carries the sender's bytes and verifies by
        // construction; only a corrupted copy needs the CRC check.
        if (!send(payload.size()))
            return {};
        SerialFrame frame{{payload.begin(), payload.end()}, crc16(payload)};
        garble(frame.payload);
        if (frame.verified())
            return {};
        ++stats_.crcErrors;
        linkMetrics().crcErrors.increment();
    }
    ++stats_.exhausted;
    linkMetrics().exhausted.increment();
    return makeError(Errc::linkExhausted,
                     "serial transfer of {} bytes failed CRC on all {} "
                     "attempts",
                     payload.size(), maxAttempts_);
}

void
SerialLink::setMaxAttempts(int attempts)
{
    if (attempts < 1)
        fatal("serial link needs at least one attempt, got {}", attempts);
    maxAttempts_ = attempts;
}

std::vector<std::uint8_t>
SerialLink::packWords(const std::vector<std::uint16_t> &words)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(words.size() * 2);
    for (std::uint16_t word : words) {
        bytes.push_back(static_cast<std::uint8_t>(word & 0xFF));
        bytes.push_back(static_cast<std::uint8_t>(word >> 8));
    }
    return bytes;
}

} // namespace uvolt::pmbus
