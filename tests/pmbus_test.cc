/**
 * @file
 * Unit tests for the pmbus module: LINEAR16 coding, the UCD9248
 * register model, the serial readback link, and the assembled board.
 */

#include <gtest/gtest.h>

#include "fpga/fault_domain.hh"
#include "pmbus/board.hh"
#include "pmbus/pmbus.hh"
#include "pmbus/serial_link.hh"
#include "pmbus/ucd9248.hh"

namespace uvolt::pmbus
{
namespace
{

TEST(Linear16, RoundTrip)
{
    for (double volts : {0.0, 0.54, 0.61, 1.0, 1.8}) {
        const auto mantissa = encodeLinear16(volts);
        EXPECT_NEAR(decodeLinear16(mantissa), volts, 1.0 / 4096.0);
    }
}

TEST(Linear16, ClampsNegative)
{
    EXPECT_EQ(encodeLinear16(-0.5), 0);
}

class RegulatorFixture : public ::testing::Test
{
  protected:
    RegulatorFixture() : regulator([this] { return temperature; })
    {
        page_a = regulator.addPage("VCCBRAM", 1000,
                                   [this](int mv) { applied_a = mv; });
        page_b = regulator.addPage("VCCINT", 1000,
                                   [this](int mv) { applied_b = mv; });
    }

    double temperature = 50.0;
    int applied_a = -1;
    int applied_b = -1;
    int page_a = 0;
    int page_b = 0;
    Ucd9248 regulator;
};

TEST_F(RegulatorFixture, PageSelectionRoutesWrites)
{
    regulator.writeByte(Command::Page, static_cast<std::uint8_t>(page_a));
    regulator.writeWord(Command::VoutCommand, encodeLinear16(0.61));
    EXPECT_EQ(applied_a, 610);
    EXPECT_EQ(applied_b, -1);

    regulator.writeByte(Command::Page, static_cast<std::uint8_t>(page_b));
    regulator.writeWord(Command::VoutCommand, encodeLinear16(0.66));
    EXPECT_EQ(applied_b, 660);
}

TEST_F(RegulatorFixture, SetpointQuantizedToDacStep)
{
    regulator.writeByte(Command::Page, static_cast<std::uint8_t>(page_a));
    regulator.writeWord(Command::VoutCommand, encodeLinear16(0.613));
    EXPECT_EQ(applied_a, 610);
    regulator.writeWord(Command::VoutCommand, encodeLinear16(0.617));
    EXPECT_EQ(applied_a, 620);
}

TEST_F(RegulatorFixture, ReadbackAndStatus)
{
    regulator.writeByte(Command::Page, static_cast<std::uint8_t>(page_a));
    regulator.writeWord(Command::VoutCommand, encodeLinear16(0.54));
    EXPECT_NEAR(decodeLinear16(regulator.readWord(Command::ReadVout)),
                0.54, 0.001);
    EXPECT_EQ(regulator.readWord(Command::StatusWord), statusNone);
    EXPECT_EQ(regulator.readWord(Command::ReadTemperature), 50);
    temperature = 80.0;
    EXPECT_EQ(regulator.readWord(Command::ReadTemperature), 80);
}

TEST_F(RegulatorFixture, OperationOffDropsRail)
{
    regulator.writeByte(Command::Page, static_cast<std::uint8_t>(page_a));
    regulator.writeWord(Command::VoutCommand, encodeLinear16(0.8));
    EXPECT_EQ(applied_a, 800);
    regulator.writeByte(Command::Operation, 0x00);
    EXPECT_EQ(applied_a, 0);
    EXPECT_EQ(regulator.readWord(Command::StatusWord), statusOff);
    regulator.writeByte(Command::Operation, 0x80);
    EXPECT_EQ(applied_a, 800);
}

TEST(SerialLinkTest, Crc16KnownVector)
{
    // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
    std::vector<std::uint8_t> check{'1', '2', '3', '4', '5', '6', '7',
                                    '8', '9'};
    EXPECT_EQ(crc16(check), 0x29B1);
}

TEST(SerialLinkTest, TransferVerifiesAndCounts)
{
    SerialLink link;
    std::vector<std::uint8_t> payload{1, 2, 3, 4};
    const SerialFrame frame = link.transfer(payload);
    EXPECT_TRUE(frame.verified());
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(link.framesSent(), 1u);
    EXPECT_EQ(link.bytesSent(), 4u);

    SerialFrame tampered = frame;
    tampered.payload[0] ^= 0xFF;
    EXPECT_FALSE(tampered.verified());
}

TEST(SerialLinkTest, WordPackingRoundTrip)
{
    std::vector<std::uint16_t> words{0x0000, 0xFFFF, 0x1234, 0xABCD};
    const auto bytes = SerialLink::packWords(words);
    // Little-endian: low byte first.
    EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0x00, 0x00, 0xFF, 0xFF,
                                                0x34, 0x12, 0xCD, 0xAB}));
}

TEST(BoardTest, PmBusPathDrivesRails)
{
    Board board(fpga::findPlatform("ZC702"));
    EXPECT_EQ(board.vccBramMv(), 1000);
    board.setVccBramMv(620);
    EXPECT_EQ(board.vccBramMv(), 620);
    EXPECT_EQ(board.device().rail(fpga::RailId::VccBram).millivolts(), 620);
    board.setVccIntMv(670);
    EXPECT_EQ(board.device().rail(fpga::RailId::VccInt).millivolts(), 670);
    board.softReset();
    EXPECT_EQ(board.vccBramMv(), 1000);
}

TEST(BoardTest, DonePinTracksCrash)
{
    Board board(fpga::findPlatform("ZC702"));
    board.setVccBramMv(board.spec().calib.bramVcrashMv);
    EXPECT_TRUE(board.donePin());
    board.setVccBramMv(board.spec().calib.bramVcrashMv - 10);
    EXPECT_FALSE(board.donePin());
    board.softReset();
    EXPECT_TRUE(board.donePin());
}

TEST(BoardTest, ReadBramToHostFaultFreeAtNominal)
{
    Board board(fpga::findPlatform("ZC702"));
    board.device().fillAll(0xA5A5);
    board.startReferenceRun();
    const auto rows = fpga::unpackRows(board.tryReadBramPacked(0).orFatal());
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(fpga::bramRows));
    for (std::uint16_t word : rows)
        EXPECT_EQ(word, 0xA5A5);
    EXPECT_GE(board.link().framesSent(), 1u);
}

TEST(BoardTest, ReadBelowCrashDies)
{
    Board board(fpga::findPlatform("ZC702"));
    board.setVccBramMv(board.spec().calib.bramVcrashMv - 20);
    EXPECT_EQ(board.tryReadBramPacked(0).code(), Errc::crashDetected);
}

TEST(BoardTest, DeviceCountBelowCrashReportsCrash)
{
    Board board(fpga::findPlatform("ZC702"));
    board.setVccBramMv(board.spec().calib.bramVcrashMv - 20);
    const auto count = board.tryCountDeviceFaults();
    ASSERT_EQ(count.code(), Errc::crashDetected);
    // A device-wide count, not a probe of one BRAM.
    EXPECT_NE(count.error().message.find("device-wide"), std::string::npos)
        << count.error().message;
}

TEST(BoardTest, InternalLogicFaultTracksVccInt)
{
    Board board(fpga::findPlatform("VC707"));
    EXPECT_FALSE(board.internalLogicFaulty());
    board.setVccIntMv(board.spec().calib.intVminMv);
    EXPECT_FALSE(board.internalLogicFaulty());
    board.setVccIntMv(board.spec().calib.intVminMv - 10);
    EXPECT_TRUE(board.internalLogicFaulty());
}

TEST(BoardTest, PowerMeterFollowsVoltage)
{
    Board board(fpga::findPlatform("VC707"));
    const double at_nominal = board.measureBramPowerW();
    board.setVccBramMv(610);
    const double at_vmin = board.measureBramPowerW();
    EXPECT_GT(at_nominal, at_vmin * 10.0);
}

TEST(BoardTest, AmbientControl)
{
    Board board(fpga::findPlatform("VC707"));
    EXPECT_DOUBLE_EQ(board.ambientC(), 50.0);
    board.setAmbientC(80.0);
    EXPECT_DOUBLE_EQ(board.ambientC(), 80.0);
    EXPECT_EQ(board.regulator().readWord(Command::ReadTemperature), 80);
}

} // namespace
} // namespace uvolt::pmbus
