/**
 * @file
 * Parameterized property suites (TEST_P) covering the invariants the
 * library guarantees across its whole parameter space: every platform,
 * every fixed-point format, a range of data-pattern densities, and a
 * range of placement seeds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include <atomic>

#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "fpga/device.hh"
#include "fpga/fault_domain.hh"
#include "fpga/platform.hh"
#include "fxp/fixed_point.hh"
#include "harness/experiment.hh"
#include "mem/catalog.hh"
#include "mem/memory_device.hh"
#include "nn/quantizer.hh"
#include "pmbus/board.hh"
#include "power/power_model.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "vmodel/chip_fault_model.hh"

namespace uvolt
{
namespace
{

// ---------------------------------------------------------------------
// Per-platform physics invariants
// ---------------------------------------------------------------------

class PlatformProperties : public ::testing::TestWithParam<const char *>
{
  protected:
    const fpga::PlatformSpec &
    spec() const
    {
        return fpga::findPlatform(GetParam());
    }
};

TEST_P(PlatformProperties, VoltageRegionsAreOrdered)
{
    const auto &calib = spec().calib;
    EXPECT_LT(calib.bramVcrashMv, calib.bramVminMv);
    EXPECT_LT(calib.bramVminMv, spec().vnomMv);
    EXPECT_LT(calib.intVcrashMv, calib.intVminMv);
    EXPECT_LT(calib.intVminMv, spec().vnomMv);
    // Guardbands in the plausible 30-45% window the paper reports.
    const double guardband = 1.0 -
        static_cast<double>(calib.bramVminMv) / spec().vnomMv;
    EXPECT_GT(guardband, 0.30);
    EXPECT_LT(guardband, 0.45);
}

TEST_P(PlatformProperties, FaultMapIsReproducible)
{
    pmbus::Board a(spec()), b(spec());
    a.device().fillAll(0xFFFF);
    b.device().fillAll(0xFFFF);
    a.setVccBramMv(spec().calib.bramVcrashMv);
    b.setVccBramMv(spec().calib.bramVcrashMv);
    a.startReferenceRun();
    b.startReferenceRun();
    for (std::uint32_t bram = 0; bram < spec().bramCount;
         bram += spec().bramCount / 23 + 1) {
        EXPECT_EQ(a.tryReadBramPacked(bram).orFatal(),
                  b.tryReadBramPacked(bram).orFatal());
    }
}

TEST_P(PlatformProperties, ExpectedFaultsMonotoneInVoltage)
{
    const fpga::Floorplan plan =
        fpga::Floorplan::columnGrid(spec().bramCount, spec().columnHeight);
    const vmodel::ChipFaultModel model(spec(), plan);
    double previous = -1.0;
    for (int mv = spec().calib.bramVcrashMv;
         mv <= spec().calib.bramVminMv; mv += 10) {
        const double expected = model.expectedFaults(mv / 1000.0);
        if (previous >= 0.0) {
            EXPECT_LE(expected, previous);
        }
        previous = expected;
    }
    EXPECT_EQ(model.expectedFaults(spec().calib.bramVminMv / 1000.0), 0.0);
}

TEST_P(PlatformProperties, VcrashRateHitsCalibration)
{
    pmbus::Board board(spec());
    harness::SweepOptions options;
    options.runsPerLevel = 15;
    options.collectPerBram = false;
    options.fromMv = spec().calib.bramVcrashMv;
    const auto sweep = harness::runCriticalSweep(board, options);
    EXPECT_NEAR(sweep.atVcrash().faultsPerMbit,
                spec().calib.faultsPerMbitAtVcrash,
                spec().calib.faultsPerMbitAtVcrash * 0.12);
}

TEST_P(PlatformProperties, PowerModelBounds)
{
    const power::RailPowerModel rail(spec());
    for (int mv = spec().vnomMv; mv >= spec().calib.bramVcrashMv;
         mv -= 10) {
        const double rel = rail.relativePower(mv / 1000.0);
        EXPECT_GT(rel, 0.0);
        EXPECT_LE(rel, 1.0 + 1e-12);
    }
}

TEST_P(PlatformProperties, TemperatureNeverIncreasesFaults)
{
    const fpga::Floorplan plan =
        fpga::Floorplan::columnGrid(spec().bramCount, spec().columnHeight);
    const vmodel::ChipFaultModel model(spec(), plan);
    fpga::Device device(spec());
    device.fillAll(0xFFFF);
    const double v_crash = spec().calib.bramVcrashMv / 1000.0;

    double previous = -1.0;
    for (double temp : {50.0, 60.0, 70.0, 80.0}) {
        double faults = 0.0;
        for (std::uint32_t b = 0; b < spec().bramCount; ++b) {
            faults += model.countBramFaults(
                device.bram(b), b, model.effectiveVoltage(v_crash, temp));
        }
        if (previous >= 0.0) {
            EXPECT_LE(faults, previous) << "at " << temp;
        }
        previous = faults;
    }
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, PlatformProperties,
                         ::testing::Values("VC707", "ZC702", "KC705-A",
                                           "KC705-B", "KCU105",
                                           "ZCU102"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (auto &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// ---------------------------------------------------------------------
// Fixed-point formats
// ---------------------------------------------------------------------

/** Value of one LSB of @a fmt: 2^-frac. */
double
resolution(const fxp::QFormat &fmt)
{
    return std::ldexp(1.0, -fmt.fracBits());
}

/** Largest magnitude @a fmt represents: 2^digit - 2^-frac. */
double
maxMagnitude(const fxp::QFormat &fmt)
{
    return std::ldexp(1.0, fmt.digitBits()) - resolution(fmt);
}

class QFormatProperties : public ::testing::TestWithParam<int>
{
};

TEST_P(QFormatProperties, QuantizeWithinHalfLsb)
{
    const fxp::QFormat fmt(GetParam());
    Rng rng(GetParam() * 101 + 7);
    for (int i = 0; i < 400; ++i) {
        const double value =
            rng.uniform(-maxMagnitude(fmt), maxMagnitude(fmt));
        const double decoded = fmt.dequantize(fmt.quantize(value));
        EXPECT_NEAR(decoded, value, resolution(fmt) * 0.51);
    }
}

TEST_P(QFormatProperties, MagnitudeBitsClearedShrink)
{
    const fxp::QFormat fmt(GetParam());
    Rng rng(GetParam() * 77 + 1);
    for (int i = 0; i < 200; ++i) {
        const fxp::Word word = fmt.quantize(
            rng.uniform(-maxMagnitude(fmt), maxMagnitude(fmt)));
        for (int bit = 0; bit < fxp::signBit; ++bit) {
            if (!fxp::getBit(word, bit))
                continue;
            EXPECT_LE(std::abs(fmt.dequantize(
                          fxp::withBit(word, bit, false))),
                      std::abs(fmt.dequantize(word)));
        }
    }
}

TEST_P(QFormatProperties, SaturationNeverWraps)
{
    const fxp::QFormat fmt(GetParam());
    const double beyond = maxMagnitude(fmt) * 4.0 + 1.0;
    EXPECT_NEAR(fmt.dequantize(fmt.quantize(beyond)), maxMagnitude(fmt),
                1e-9);
    EXPECT_NEAR(fmt.dequantize(fmt.quantize(-beyond)),
                -maxMagnitude(fmt), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(DigitWidths, QFormatProperties,
                         ::testing::Values(0, 1, 2, 4, 8, 15));

// ---------------------------------------------------------------------
// Data-pattern density sweep: fault rate tracks the "1" density
// ---------------------------------------------------------------------

class PatternDensityProperties : public ::testing::TestWithParam<double>
{
};

TEST_P(PatternDensityProperties, FaultsProportionalToOnesDensity)
{
    const double density = GetParam();
    static pmbus::Board board(fpga::findPlatform("KC705-A"));
    board.softReset();

    harness::SweepOptions options;
    options.runsPerLevel = 9;
    options.collectPerBram = false;
    options.fromMv = board.spec().calib.bramVcrashMv;

    options.pattern = harness::PatternSpec::allOnes();
    const double ones =
        harness::runCriticalSweep(board, options).atVcrash().medianFaults;

    options.pattern = harness::PatternSpec::random(density, 17);
    const double observed =
        harness::runCriticalSweep(board, options).atVcrash().medianFaults;

    EXPECT_NEAR(observed / ones, density, 0.06);
}

INSTANTIATE_TEST_SUITE_P(Densities, PatternDensityProperties,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

// ---------------------------------------------------------------------
// Packed fault domains: the popcount kernel is bit-for-bit the scalar
// reference walker, across dies, voltages, patterns, and worker counts
// ---------------------------------------------------------------------

class PackedFaultDomainProperties
    : public ::testing::TestWithParam<std::size_t> // ThreadPool workers
{
};

TEST_P(PackedFaultDomainProperties, PackedEqualsScalarReference)
{
    // gtest assertions are not thread-safe, so worker jobs only count
    // mismatches; the main thread asserts once the pool drains.
    ThreadPool pool(GetParam());
    std::atomic<std::uint64_t> mismatches{0};

    for (const char *name : {"VC707", "ZC702", "KC705-A", "KC705-B"}) {
        pool.submit([name, &mismatches] {
            const fpga::PlatformSpec &spec = fpga::findPlatform(name);
            const vmodel::ChipFaultModel model(
                spec, fpga::Floorplan::columnGrid(spec.bramCount,
                                                  spec.columnHeight));
            fpga::Bram bram;
            Rng rng(combineSeeds(hashSeed(name), 0xFD));

            const double v_lo = spec.calib.bramVcrashMv / 1000.0 - 0.01;
            const double v_hi = spec.calib.bramVminMv / 1000.0 + 0.01;
            const std::uint32_t stride = spec.bramCount / 13 + 1;

            for (int trial = 0; trial < 3; ++trial) {
                // Random pattern of random "1" density.
                const double density = rng.uniform();
                for (int row = 0; row < fpga::bramRows; ++row) {
                    std::uint16_t value = 0;
                    for (int col = 0; col < fpga::bramCols; ++col) {
                        if (rng.uniform() < density)
                            value |= static_cast<std::uint16_t>(1u << col);
                    }
                    bram.writeRow(row, value);
                }
                for (std::uint32_t b = 0; b < spec.bramCount;
                     b += stride) {
                    const double v = rng.uniform(v_lo, v_hi);
                    const int packed = model.countFaults(
                        bram.words(), b, v);
                    const int reference =
                        model.countBramFaultsReference(bram, b, v);
                    if (packed != reference)
                        ++mismatches;
                    // The materialized readback differs from the
                    // written words in exactly the counted bitcells.
                    const auto words = model.readBramPacked(bram, b, v);
                    if (fpga::diffPopcount(words, bram.words()) !=
                        static_cast<std::uint64_t>(reference))
                        ++mismatches;
                }
            }
        });
    }
    pool.wait();
    EXPECT_EQ(mismatches.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, PackedFaultDomainProperties,
                         ::testing::Values(0u, 1u, 8u));

// ---------------------------------------------------------------------
// The same invariant lifted to the MemoryDevice abstraction: for EVERY
// backend (BRAM adapter, HBM, MoRS SRAM), the packed ladder path is
// bit-for-bit the backend's scalar reference walker, under random
// patterns, random voltages around the envelope, and any worker count
// ---------------------------------------------------------------------

class MemBackendProperties
    : public ::testing::TestWithParam<std::size_t> // ThreadPool workers
{
};

TEST_P(MemBackendProperties, PackedEqualsScalarReferenceOnEveryBackend)
{
    // gtest assertions are not thread-safe, so worker jobs only count
    // mismatches; the main thread asserts once the pool drains.
    ThreadPool pool(GetParam());
    std::atomic<std::uint64_t> mismatches{0};

    for (const char *name : {"VC707", "HBM2-A", "MORS-SRAM-A"}) {
        pool.submit([name, &mismatches] {
            const auto device = mem::makeDevice(name);
            Rng rng(combineSeeds(hashSeed(name), 0x3E3));
            const mem::DeviceTraits &traits = device->traits();

            const double v_lo = traits.vcrashMv / 1000.0 - 0.01;
            const double v_hi = traits.vminMv / 1000.0 + 0.01;
            const std::uint32_t stride = traits.domainCount / 13 + 1;
            std::vector<std::uint64_t> plane(traits.wordsPerDomain);

            for (int trial = 0; trial < 3; ++trial) {
                // Random pattern of random "1" density, programmed
                // through the packed-plane interface and read back.
                const double density = rng.uniform();
                for (std::uint32_t d = 0; d < traits.domainCount;
                     d += stride) {
                    for (auto &word : plane) {
                        word = 0;
                        for (int bit = 0; bit < fpga::bramWordBits;
                             ++bit) {
                            if (rng.chance(density))
                                word |= std::uint64_t{1} << bit;
                        }
                    }
                    device->assignDomainWords(d, plane);
                    if (std::vector<std::uint64_t>(
                            device->domainWords(d).begin(),
                            device->domainWords(d).end()) != plane)
                        ++mismatches; // programming round-trip

                    const double v = rng.uniform(v_lo, v_hi);
                    const int packed = device->countDomainFaults(d, v);
                    const int reference =
                        device->countDomainFaultsReference(d, v);
                    if (packed != reference)
                        ++mismatches;
                    // The materialized readback agrees bit for bit:
                    // its diff against the written plane IS the count.
                    const auto observed = device->readDomainPacked(d, v);
                    if (fpga::diffPopcount(device->domainWords(d),
                                           observed) !=
                        static_cast<std::uint64_t>(packed))
                        ++mismatches;
                    // Row-lane accessors survive the pack round-trip.
                    if (fpga::packRows(fpga::unpackRows(observed)) !=
                        observed)
                        ++mismatches;
                }
            }
        });
    }
    pool.wait();
    EXPECT_EQ(mismatches.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, MemBackendProperties,
                         ::testing::Values(0u, 1u, 8u));

TEST(PackedFaultDomainProperties, PopcountMatchesNaiveBitCount)
{
    Rng rng(0xB17C0DE);
    std::vector<std::uint64_t> a(fpga::bramWords), b(fpga::bramWords);
    for (int trial = 0; trial < 20; ++trial) {
        for (int w = 0; w < fpga::bramWords; ++w) {
            a[static_cast<std::size_t>(w)] = rng();
            b[static_cast<std::size_t>(w)] = rng();
        }
        std::uint64_t naive_ones = 0, naive_diff = 0;
        for (int w = 0; w < fpga::bramWords; ++w) {
            for (int bit = 0; bit < fpga::bramWordBits; ++bit) {
                const std::uint64_t mask = std::uint64_t{1} << bit;
                naive_ones +=
                    (a[static_cast<std::size_t>(w)] & mask) != 0;
                naive_diff += ((a[static_cast<std::size_t>(w)] ^
                                b[static_cast<std::size_t>(w)]) &
                               mask) != 0;
            }
        }
        EXPECT_EQ(fpga::popcountWords(a), naive_ones);
        EXPECT_EQ(fpga::diffPopcount(a, b), naive_diff);

        // The set-bit visitor walks exactly the naive count, ascending.
        std::uint64_t visited = 0;
        std::uint32_t last_offset = 0;
        fpga::forEachSetBit(a, [&](std::uint32_t offset) {
            EXPECT_TRUE(visited == 0 || offset > last_offset);
            last_offset = offset;
            ++visited;
        });
        EXPECT_EQ(visited, naive_ones);
    }
}

TEST(PackedFaultDomainProperties, PackUnpackRoundTrip)
{
    Rng rng(0x9A57);
    std::vector<std::uint16_t> rows(fpga::bramRows);
    for (int trial = 0; trial < 10; ++trial) {
        for (auto &row : rows)
            row = static_cast<std::uint16_t>(rng());
        const auto words = fpga::packRows(rows);
        ASSERT_EQ(words.size(), static_cast<std::size_t>(fpga::bramWords));
        EXPECT_EQ(fpga::unpackRows(words), rows);
        for (int row = 0; row < fpga::bramRows; row += 131) {
            EXPECT_EQ(fpga::rowOfWords(words, row),
                      rows[static_cast<std::size_t>(row)]);
        }
    }
}

// ---------------------------------------------------------------------
// Placement seeds: injectivity and coverage under arbitrary seeds
// ---------------------------------------------------------------------

class PlacementSeedProperties
    : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static const accel::WeightImage &
    image()
    {
        static const accel::WeightImage instance = [] {
            nn::Network net({54, 64, 32, 7});
            net.initWeights(3);
            return accel::WeightImage(nn::quantize(net));
        }();
        return instance;
    }
};

TEST_P(PlacementSeedProperties, RandomPlacementIsValid)
{
    const accel::Placement placement =
        accel::randomPlacement(image(), 280, GetParam());
    EXPECT_TRUE(placement.fits(280));
    std::vector<bool> used(280, false);
    for (std::uint32_t i = 0; i < placement.logicalCount(); ++i) {
        const std::uint32_t physical = placement.physicalOf(i);
        EXPECT_FALSE(used[physical]);
        used[physical] = true;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementSeedProperties,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u,
                                           0xDEADBEEFu));

} // namespace
} // namespace uvolt
