/**
 * @file
 * Unit tests for the fpga module: BRAM blocks, floorplans, voltage
 * rails, the Table I platform catalog, and the derived calibration
 * quantities (guardband averages, fault-growth slopes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fpga/bram.hh"
#include "fpga/device.hh"
#include "fpga/fault_domain.hh"
#include "fpga/floorplan.hh"
#include "fpga/platform.hh"
#include "fpga/voltage_rail.hh"

namespace uvolt::fpga
{
namespace
{

TEST(BramTest, Geometry)
{
    EXPECT_EQ(bramRows, 1024);
    EXPECT_EQ(bramCols, 16);
    EXPECT_EQ(bramBits, 16 * 1024);
}

TEST(BramTest, RowReadWrite)
{
    Bram bram;
    EXPECT_EQ(bram.readRow(0), 0);
    bram.writeRow(0, 0xBEEF);
    bram.writeRow(1023, 0x1234);
    EXPECT_EQ(bram.readRow(0), 0xBEEF);
    EXPECT_EQ(bram.readRow(1023), 0x1234);
}

TEST(BramTest, BitAccess)
{
    Bram bram;
    bram.writeRow(5, 1u << 3);
    EXPECT_TRUE(bram.testBit(5, 3));
    EXPECT_FALSE(bram.testBit(5, 2));
    bram.writeRow(5, 0);
    EXPECT_FALSE(bram.testBit(5, 3));
}

TEST(BramTest, BitAccessRoundTripsThroughWords)
{
    // testBit is the one single-bit accessor and must agree with the
    // packed plane.
    Bram bram;
    bram.writeRow(7, 1u << 11);
    EXPECT_TRUE(bram.testBit(7, 11));
    const BitAddress addr{0, 7, 11};
    EXPECT_TRUE(bram.words()[addr.wordIndex()] & addr.wordMask());
    bram.writeRow(7, 0);
    EXPECT_FALSE(bram.testBit(7, 11));
    EXPECT_FALSE(bram.words()[addr.wordIndex()] & addr.wordMask());
}

TEST(BramTest, FillAndCountOnes)
{
    Bram bram;
    bram.fill(0xFFFF);
    EXPECT_EQ(bram.countOnes(), bramBits);
    bram.fill(0xAAAA);
    EXPECT_EQ(bram.countOnes(), bramBits / 2);
    bram.fill(0x0000);
    EXPECT_EQ(bram.countOnes(), 0);
}

TEST(BramTest, PackedWordsMatchRowLanes)
{
    Bram bram;
    bram.writeRow(0, 0x1111);
    bram.writeRow(1, 0x2222);
    bram.writeRow(2, 0x3333);
    bram.writeRow(3, 0x4444);
    const auto words = bram.words();
    ASSERT_EQ(words.size(), static_cast<std::size_t>(bramWords));
    // Four 16-bit rows pack little-lane-first into one 64-bit word.
    EXPECT_EQ(words[0], 0x4444333322221111ull);
    for (int row = 0; row < 4; ++row)
        EXPECT_EQ(rowOfWords(words, row), bram.readRow(row));
}

TEST(BramTest, RowsRoundTripThroughPackedPlane)
{
    Bram bram;
    for (int row = 0; row < bramRows; ++row)
        bram.writeRow(row, static_cast<std::uint16_t>(row * 2654435761u));
    const std::vector<std::uint16_t> rows = unpackRows(bram.words());
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(bramRows));
    for (int row = 0; row < bramRows; row += 97)
        EXPECT_EQ(rows[static_cast<std::size_t>(row)], bram.readRow(row));

    Bram copy;
    copy.assignWords(packRows(rows));
    EXPECT_TRUE(std::equal(copy.words().begin(), copy.words().end(),
                           bram.words().begin()));

    Bram packed;
    packed.assignWords(bram.words());
    EXPECT_EQ(unpackRows(packed.words()), rows);
    EXPECT_EQ(packed.countOnes(), bram.countOnes());
}

TEST(BramTest, ParityPlaneNeverReachesFaultDomain)
{
    Bram bram;
    bram.fill(0xAAAA);
    const int data_ones = bram.countOnes();
    const std::uint64_t domain_ones = popcountWords(bram.words());
    EXPECT_EQ(bram.parityOnes(), 0); // lazily allocated, starts empty

    bram.setParityBit(0, 0, true);
    bram.setParityBit(511, 1, true);
    bram.setParityBit(1023, 0, true);
    EXPECT_TRUE(bram.parityBit(0, 0));
    EXPECT_FALSE(bram.parityBit(0, 1));
    EXPECT_TRUE(bram.parityBit(1023, 0));
    EXPECT_EQ(bram.parityOnes(), 3);

    // Parity lives on its own plane: the data fault domain is unchanged.
    EXPECT_EQ(bram.countOnes(), data_ones);
    EXPECT_EQ(popcountWords(bram.words()), domain_ones);
    EXPECT_EQ(FaultDomain::of(bram, 0).ones(), domain_ones);
}

TEST(BramTest, EpochBumpsOnEveryMutation)
{
    Bram bram;
    std::uint64_t last = bram.epoch();
    const auto bumped = [&] {
        const std::uint64_t now = bram.epoch();
        const bool changed = now != last;
        last = now;
        return changed;
    };

    bram.writeRow(0, 0xBEEF);
    EXPECT_TRUE(bumped());
    bram.fill(0xFFFF);
    EXPECT_TRUE(bumped());
    bram.setParityBit(2, 0, true);
    EXPECT_TRUE(bumped());
    const std::vector<std::uint64_t> image(
        static_cast<std::size_t>(bramWords), 0);
    bram.assignWords(image);
    EXPECT_TRUE(bumped());

    // Reads leave the epoch alone.
    (void)bram.readRow(0);
    (void)bram.testBit(1, 1);
    (void)bram.countOnes();
    EXPECT_FALSE(bumped());
}

TEST(BitAddressTest, Offsets)
{
    BitAddress addr{7, 2, 3};
    EXPECT_EQ(addr.bitOffset(), 2u * 16u + 3u);
    EXPECT_EQ(addr.wordIndex(), (2u * 16u + 3u) / 64u);
    EXPECT_EQ(addr.wordBit(), (2u * 16u + 3u) % 64u);
    EXPECT_EQ(addr.wordMask(), std::uint64_t{1} << addr.wordBit());
}

TEST(BitAddressTest, RoundTripPackedCoordinates)
{
    for (std::uint32_t offset = 0;
         offset < static_cast<std::uint32_t>(bramBits); offset += 41) {
        const BitAddress addr = BitAddress::fromBitOffset(9, offset);
        EXPECT_EQ(addr.bram, 9u);
        EXPECT_EQ(addr.bitOffset(), offset);
        EXPECT_LT(addr.row, bramRows);
        EXPECT_LT(addr.col, bramCols);

        const BitAddress back = BitAddress::fromWordCoords(
            addr.bram, addr.wordIndex(), addr.wordBit());
        EXPECT_EQ(back, addr);
    }
    // The extremes in particular.
    EXPECT_EQ(BitAddress::fromBitOffset(0, 0), (BitAddress{0, 0, 0}));
    EXPECT_EQ(
        BitAddress::fromBitOffset(
            3, static_cast<std::uint32_t>(bramBits) - 1),
        (BitAddress{3, bramRows - 1, bramCols - 1}));
}

TEST(FloorplanTest, ColumnGridExactFit)
{
    // 280 BRAMs in columns of 70: exactly 4 full columns (ZC702).
    const Floorplan plan = Floorplan::columnGrid(280, 70);
    EXPECT_EQ(plan.width(), 4);
    EXPECT_EQ(plan.height(), 70);
    EXPECT_EQ(plan.bramCount(), 280u);
    EXPECT_EQ(plan.siteOf(0), (Site{0, 0}));
    EXPECT_EQ(plan.siteOf(69), (Site{0, 69}));
    EXPECT_EQ(plan.siteOf(70), (Site{1, 0}));
    EXPECT_TRUE(plan.occupied({3, 69}));
}

TEST(FloorplanTest, PartialLastColumnLeavesEmptySites)
{
    const Floorplan plan = Floorplan::columnGrid(2060, 120);
    EXPECT_EQ(plan.width(), 18); // ceil(2060 / 120)
    // 18 * 120 = 2160 sites, 100 empty at the top of the last column.
    EXPECT_FALSE(plan.occupied({17, 119}));
    EXPECT_TRUE(plan.occupied({17, 19}));
    EXPECT_FALSE(plan.bramAt({-1, 0}).has_value());
    EXPECT_FALSE(plan.bramAt({18, 0}).has_value());
}

TEST(FloorplanTest, RoundTripMapping)
{
    const Floorplan plan = Floorplan::columnGrid(890, 120);
    for (std::uint32_t b = 0; b < plan.bramCount(); b += 37) {
        const Site site = plan.siteOf(b);
        const auto back = plan.bramAt(site);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, b);
    }
}

TEST(VoltageRailTest, SetAndClamp)
{
    VoltageRail rail(RailId::VccBram, 1000);
    EXPECT_EQ(rail.millivolts(), 1000);
    rail.setMillivolts(610);
    EXPECT_EQ(rail.millivolts(), 610);
    EXPECT_DOUBLE_EQ(rail.volts(), 0.61);
    rail.setMillivolts(-5);
    EXPECT_EQ(rail.millivolts(), 0);
    rail.setMillivolts(5000);
    EXPECT_EQ(rail.millivolts(), 1200); // nominal + 20%
    rail.reset();
    EXPECT_EQ(rail.millivolts(), 1000);
}

TEST(VoltageRailTest, Names)
{
    EXPECT_STREQ(railName(RailId::VccBram), "VCCBRAM");
    EXPECT_STREQ(railName(RailId::VccInt), "VCCINT");
    EXPECT_STREQ(railName(RailId::VccAux), "VCCAUX");
}

TEST(PlatformTest, CatalogMatchesTableI)
{
    const auto &catalog = platformCatalog();
    ASSERT_EQ(catalog.size(), 4u);

    const PlatformSpec &vc707 = findPlatform("VC707");
    EXPECT_EQ(vc707.family, "Virtex-7");
    EXPECT_EQ(vc707.chipModel, "XC7VX485T-ffg1761-2");
    EXPECT_EQ(vc707.serialNumber, "1308-6520");
    EXPECT_EQ(vc707.bramCount, 2060u);
    EXPECT_EQ(vc707.processNm, 28);
    EXPECT_EQ(vc707.vnomMv, 1000);

    EXPECT_EQ(findPlatform("ZC702").bramCount, 280u);
    EXPECT_EQ(findPlatform("KC705-A").bramCount, 890u);
    EXPECT_EQ(findPlatform("KC705-B").bramCount, 890u);

    // The two KC705 samples are identical parts with different serials.
    EXPECT_EQ(findPlatform("KC705-A").chipModel,
              findPlatform("KC705-B").chipModel);
    EXPECT_NE(findPlatform("KC705-A").serialNumber,
              findPlatform("KC705-B").serialNumber);
}

TEST(PlatformTest, GuardbandAveragesMatchPaper)
{
    // Paper: on average 39% guardband for VCCBRAM and 34% for VCCINT.
    double bram_sum = 0.0, int_sum = 0.0;
    for (const auto &spec : platformCatalog()) {
        bram_sum += 1.0 - spec.calib.bramVminMv /
            static_cast<double>(spec.vnomMv);
        int_sum += 1.0 - spec.calib.intVminMv /
            static_cast<double>(spec.vnomMv);
    }
    EXPECT_NEAR(bram_sum / 4.0, 0.39, 0.005);
    EXPECT_NEAR(int_sum / 4.0, 0.34, 0.005);
}

TEST(PlatformTest, Vc707AnchorsMatchPaper)
{
    const PlatformSpec &vc707 = findPlatform("VC707");
    EXPECT_EQ(vc707.calib.bramVminMv, 610);
    EXPECT_EQ(vc707.calib.bramVcrashMv, 540);
    EXPECT_DOUBLE_EQ(vc707.calib.faultsPerMbitAtVcrash, 652.0);
    EXPECT_NEAR(vc707.totalMbit(), 32.1875, 1e-6);
    EXPECT_NEAR(vc707.expectedFaultsAtVcrash(), 652.0 * 32.1875, 1.0);
}

TEST(PlatformTest, Kc705DieToDieRatio)
{
    // Paper: KC705-A shows a 4.1x higher fault rate than KC705-B.
    const double a = findPlatform("KC705-A").calib.faultsPerMbitAtVcrash;
    const double b = findPlatform("KC705-B").calib.faultsPerMbitAtVcrash;
    EXPECT_NEAR(a / b, 4.1, 0.2);
}

TEST(PlatformTest, FaultGrowthSlopePositive)
{
    for (const auto &spec : platformCatalog()) {
        const double k = spec.faultGrowthSlope();
        EXPECT_GT(k, 50.0) << spec.name;
        EXPECT_LT(k, 250.0) << spec.name;
        // The slope reproduces the anchor: N(Vcrash) = expected total.
        const double span =
            (spec.calib.bramVminMv - spec.calib.bramVcrashMv) / 1000.0;
        EXPECT_NEAR(std::exp(k * span), spec.expectedFaultsAtVcrash(),
                    spec.expectedFaultsAtVcrash() * 1e-9);
    }
}

TEST(PlatformTest, ExtensionCatalogProjections)
{
    const auto &extensions = fpga::extensionPlatformCatalog();
    ASSERT_EQ(extensions.size(), 2u);
    for (const auto &spec : extensions) {
        // Newer nodes: lower nominal rails, still-ordered regions.
        EXPECT_LT(spec.vnomMv, 1000) << spec.name;
        EXPECT_LT(spec.processNm, 28) << spec.name;
        EXPECT_LT(spec.calib.bramVcrashMv, spec.calib.bramVminMv);
        EXPECT_LT(spec.calib.bramVminMv, spec.vnomMv);
        EXPECT_GT(spec.faultGrowthSlope(), 0.0);
        // findPlatform resolves extension names too.
        EXPECT_EQ(&fpga::findPlatform(spec.name), &spec);
    }
    // FinFET ITD is much weaker than planar 28 nm.
    EXPECT_LT(fpga::findPlatform("ZCU102").calib.itdMvPerC,
              fpga::findPlatform("VC707").calib.itdMvPerC / 3.0);
}

TEST(DeviceTest, ConstructionAndRails)
{
    Device device(findPlatform("ZC702"));
    EXPECT_EQ(device.bramCount(), 280u);
    EXPECT_EQ(device.totalBits(), 280ull * 16384ull);
    EXPECT_EQ(device.rail(RailId::VccBram).millivolts(), 1000);
    EXPECT_EQ(device.rail(RailId::VccInt).millivolts(), 1000);
    EXPECT_TRUE(device.operational());
}

TEST(DeviceTest, FillAllAndTotalOnes)
{
    Device device(findPlatform("ZC702"));
    device.fillAll(0xFFFF);
    EXPECT_EQ(device.totalOnes(), device.totalBits());
    device.fillAll(0xAAAA);
    EXPECT_EQ(device.totalOnes(), device.totalBits() / 2);
}

TEST(DeviceTest, ContentEpochSharedAcrossPool)
{
    Device device(findPlatform("ZC702"));
    const std::uint64_t before = device.contentEpoch();
    device.bram(0).writeRow(0, 0x1234);
    EXPECT_GT(device.contentEpoch(), before);

    // Any BRAM of the pool bumps the same counter ...
    const std::uint64_t mid = device.contentEpoch();
    device.bram(279).fill(0xFFFF);
    EXPECT_GT(device.contentEpoch(), mid);

    // ... and a detached copy stops doing so.
    Bram copy = device.bram(0);
    const std::uint64_t after = device.contentEpoch();
    copy.writeRow(1, 0x5678);
    EXPECT_EQ(device.contentEpoch(), after);
    EXPECT_GT(copy.epoch(), 0u);
}

TEST(DeviceTest, CrashSemantics)
{
    Device device(findPlatform("VC707"));
    auto &rail = device.rail(RailId::VccBram);
    rail.setMillivolts(540); // exactly Vcrash: still alive
    EXPECT_TRUE(device.operational());
    EXPECT_TRUE(device.donePin());
    rail.setMillivolts(530); // below Vcrash: DONE drops
    EXPECT_FALSE(device.operational());
    EXPECT_FALSE(device.donePin());
    rail.setMillivolts(1000);
    EXPECT_TRUE(device.operational());

    // VCCINT crash is independent.
    device.rail(RailId::VccInt).setMillivolts(580);
    EXPECT_FALSE(device.operational());
}

} // namespace
} // namespace uvolt::fpga
