/**
 * @file
 * Unit tests for the fault model: calibration of the vulnerability
 * field, determinism of the per-chip weak-cell map, the empirical laws
 * of Section II (exponential growth, flip polarity, SAFE-region
 * cleanliness), and the ITD temperature shift.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "fpga/device.hh"
#include "fpga/fault_domain.hh"
#include "fpga/platform.hh"
#include "vmodel/chip_fault_model.hh"
#include "vmodel/process_variation.hh"

namespace uvolt::vmodel
{
namespace
{

using fpga::findPlatform;
using fpga::Floorplan;
using fpga::PlatformSpec;

Floorplan
planOf(const PlatformSpec &spec)
{
    return Floorplan::columnGrid(spec.bramCount, spec.columnHeight);
}

TEST(ProcessVariation, Deterministic)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const Floorplan plan = planOf(spec);
    const auto a = bramVulnerability(spec, plan);
    const auto b = bramVulnerability(spec, plan);
    EXPECT_EQ(a, b);
}

TEST(ProcessVariation, CalibratedTotalAndZeros)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const Floorplan plan = planOf(spec);
    const auto lambda = bramVulnerability(spec, plan);
    ASSERT_EQ(lambda.size(), spec.bramCount);

    const double total =
        std::accumulate(lambda.begin(), lambda.end(), 0.0);
    EXPECT_NEAR(total, spec.expectedFaultsAtVcrash(), total * 1e-6);

    const auto zeros = static_cast<double>(
        std::count(lambda.begin(), lambda.end(), 0.0));
    EXPECT_NEAR(zeros / static_cast<double>(lambda.size()),
                spec.calib.neverFaultyFraction, 0.01);

    const double max_value =
        *std::max_element(lambda.begin(), lambda.end());
    EXPECT_LE(max_value,
              spec.calib.maxBramFaultRate * fpga::bramBits + 1e-9);
}

TEST(ProcessVariation, DieToDieMapsDiffer)
{
    // Two identical KC705 parts, different serials: the variation maps
    // must differ substantially (paper Fig 7).
    const PlatformSpec &a_spec = findPlatform("KC705-A");
    const PlatformSpec &b_spec = findPlatform("KC705-B");
    const Floorplan plan = planOf(a_spec);
    const auto a = bramVulnerability(a_spec, plan);
    const auto b = bramVulnerability(b_spec, plan);

    int both_nonzero_and_close = 0;
    int compared = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] > 0.0 && b[i] > 0.0) {
            ++compared;
            if (std::abs(a[i] - b[i]) < 0.1 * std::max(a[i], b[i]))
                ++both_nonzero_and_close;
        }
    }
    ASSERT_GT(compared, 10);
    EXPECT_LT(static_cast<double>(both_nonzero_and_close) / compared, 0.5);
}

TEST(ProcessVariation, SpatialCorrelationRaisesNeighborSimilarity)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const Floorplan plan = planOf(spec);

    VariationParams with;
    const auto field = latentField(spec, plan, with);

    // Correlation between vertical neighbors should clearly exceed the
    // correlation between far-apart BRAMs.
    auto correlation = [&](int stride) {
        double num = 0.0, den_a = 0.0, den_b = 0.0;
        for (std::size_t i = 0;
             i + static_cast<std::size_t>(stride) < field.size();
             ++i) {
            const double a = field[i];
            const double b = field[i + static_cast<std::size_t>(stride)];
            num += a * b;
            den_a += a * a;
            den_b += b * b;
        }
        return num / std::sqrt(den_a * den_b);
    };
    EXPECT_GT(correlation(1), correlation(60) + 0.1);
}

TEST(ChipFaultModel, DeterministicWeakCellMap)
{
    const PlatformSpec &spec = findPlatform("ZC702");
    const Floorplan plan = planOf(spec);
    const ChipFaultModel a(spec, plan);
    const ChipFaultModel b(spec, plan);
    ASSERT_EQ(a.totalWeakCells(), b.totalWeakCells());
    for (std::uint32_t bram = 0; bram < spec.bramCount; ++bram) {
        const auto &cells_a = a.weakCells(bram);
        const auto &cells_b = b.weakCells(bram);
        ASSERT_EQ(cells_a.size(), cells_b.size());
        for (std::size_t i = 0; i < cells_a.size(); ++i) {
            EXPECT_EQ(cells_a[i].row, cells_b[i].row);
            EXPECT_EQ(cells_a[i].col, cells_b[i].col);
            EXPECT_EQ(cells_a[i].thresholdV, cells_b[i].thresholdV);
        }
    }
}

TEST(ChipFaultModel, WeakCellCountNearCalibration)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const ChipFaultModel model(spec, planOf(spec));
    // Poisson sampling around expected / oneToZeroShare.
    const double expected = spec.expectedFaultsAtVcrash() / oneToZeroShare;
    EXPECT_NEAR(static_cast<double>(model.totalWeakCells()), expected,
                5.0 * std::sqrt(expected));
}

TEST(ChipFaultModel, ThresholdsConfinedToCriticalRegion)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const ChipFaultModel model(spec, planOf(spec));
    const double v_min = spec.calib.bramVminMv / 1000.0;
    const double v_crash = spec.calib.bramVcrashMv / 1000.0;
    for (std::uint32_t bram = 0; bram < spec.bramCount; ++bram) {
        for (const WeakCell &cell : model.weakCells(bram)) {
            EXPECT_GT(cell.thresholdV, v_crash);
            EXPECT_LT(cell.thresholdV, v_min);
            EXPECT_LT(cell.row, fpga::bramRows);
            EXPECT_LT(cell.col, fpga::bramCols);
        }
    }
}

TEST(ChipFaultModel, PolarityShareMatchesPaper)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const ChipFaultModel model(spec, planOf(spec));
    std::uint64_t one_to_zero = 0, total = 0;
    for (std::uint32_t bram = 0; bram < spec.bramCount; ++bram) {
        for (const WeakCell &cell : model.weakCells(bram)) {
            ++total;
            one_to_zero += cell.oneToZero;
        }
    }
    ASSERT_GT(total, 1000u);
    EXPECT_NEAR(static_cast<double>(one_to_zero) /
                    static_cast<double>(total),
                oneToZeroShare, 0.005);
}

TEST(ChipFaultModel, ExponentialGrowthMatchesAnalytic)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const ChipFaultModel model(spec, planOf(spec));
    fpga::Device device(spec);
    device.fillAll(0xFFFF);

    for (int mv : {600, 580, 560, 540}) {
        const double v = mv / 1000.0;
        double counted = 0.0;
        for (std::uint32_t b = 0; b < spec.bramCount; ++b)
            counted += model.countBramFaults(device.bram(b), b, v);
        const double expected = model.expectedFaults(v) * oneToZeroShare;
        // Poisson-level agreement (sampled map vs analytic law).
        EXPECT_NEAR(counted, expected,
                    5.0 * std::sqrt(expected) + 8.0)
            << "at " << mv << " mV";
    }
}

TEST(ChipFaultModel, SafeRegionIsClean)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const ChipFaultModel model(spec, planOf(spec));
    fpga::Device device(spec);
    device.fillAll(0xFFFF);
    for (int mv : {1000, 800, 620, 610}) {
        double counted = 0.0;
        for (std::uint32_t b = 0; b < spec.bramCount; ++b)
            counted += model.countBramFaults(device.bram(b), b, mv / 1000.0);
        EXPECT_EQ(counted, 0.0) << "at " << mv << " mV";
    }
    EXPECT_EQ(model.expectedFaults(0.61), 0.0);
    EXPECT_EQ(model.expectedFaults(1.0), 0.0);
}

TEST(ChipFaultModel, PatternZeroSeesAlmostNothing)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const ChipFaultModel model(spec, planOf(spec));
    fpga::Device device(spec);

    device.fillAll(0xFFFF);
    double ones_faults = 0.0;
    for (std::uint32_t b = 0; b < spec.bramCount; ++b)
        ones_faults += model.countBramFaults(device.bram(b), b, 0.54);

    device.fillAll(0x0000);
    double zeros_faults = 0.0;
    for (std::uint32_t b = 0; b < spec.bramCount; ++b)
        zeros_faults += model.countBramFaults(device.bram(b), b, 0.54);

    // 0.1% of weak cells are 0->1; everything else vanishes.
    EXPECT_LT(zeros_faults, ones_faults * 0.004);
}

TEST(ChipFaultModel, ReadBramAppliesPolarity)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const ChipFaultModel model(spec, planOf(spec));

    // Find a BRAM with at least one 1->0 weak cell.
    std::uint32_t target = spec.bramCount;
    for (std::uint32_t b = 0; b < spec.bramCount; ++b) {
        for (const auto &cell : model.weakCells(b)) {
            if (cell.oneToZero) {
                target = b;
                break;
            }
        }
        if (target != spec.bramCount)
            break;
    }
    ASSERT_LT(target, spec.bramCount);

    fpga::Bram bram;
    bram.fill(0xFFFF);
    const auto observed =
        fpga::unpackRows(model.readBramPacked(bram, target, 0.54));
    const auto &cells = model.weakCells(target);
    for (const auto &cell : cells) {
        const bool bit =
            (observed[cell.row] >> cell.col) & 1u;
        if (cell.oneToZero)
            EXPECT_FALSE(bit);
        else
            EXPECT_TRUE(bit);
    }
    // No other bit may change.
    std::uint64_t flipped = 0;
    for (int row = 0; row < fpga::bramRows; ++row) {
        flipped += static_cast<std::uint64_t>(__builtin_popcount(
            static_cast<unsigned>(observed[static_cast<std::size_t>(row)] ^
                                  0xFFFFu)));
    }
    std::uint64_t expected_flips = 0;
    for (const auto &cell : cells)
        expected_flips += cell.oneToZero;
    EXPECT_EQ(flipped, expected_flips);
}

TEST(ChipFaultModel, ParityBitsNeverLeakIntoFaultCounts)
{
    // Regression for the packed layout: planting "faults" in the parity
    // plane (2 bits/row the paper excludes) must leave every popcount-
    // based fault total and the packed readback untouched, because the
    // parity plane is structurally absent from the data fault domain.
    const PlatformSpec &spec = findPlatform("ZC702");
    const ChipFaultModel model(spec, planOf(spec));
    fpga::Device device(spec);
    device.fillAll(0xFFFF);
    const double v = spec.calib.bramVcrashMv / 1000.0;

    const std::uint64_t device_before = model.countDeviceFaults(device, v);
    const int bram_before = model.countBramFaults(device.bram(0), 0, v);
    const auto packed_before = model.readBramPacked(device.bram(0), 0, v);
    ASSERT_GT(device_before, 0u);

    for (std::uint32_t b = 0; b < spec.bramCount; ++b) {
        for (int row = 0; row < fpga::bramRows; row += 3) {
            device.bram(b).setParityBit(row, 0, true);
            device.bram(b).setParityBit(row, 1, true);
        }
    }
    EXPECT_GT(device.bram(0).parityOnes(), 0);

    EXPECT_EQ(model.countDeviceFaults(device, v), device_before);
    EXPECT_EQ(model.countBramFaults(device.bram(0), 0, v), bram_before);
    EXPECT_EQ(model.countBramFaultsReference(device.bram(0), 0, v),
              bram_before);
    EXPECT_EQ(model.readBramPacked(device.bram(0), 0, v), packed_before);
    EXPECT_EQ(fpga::popcountWords(device.bram(0).words()),
              static_cast<std::uint64_t>(fpga::bramBits));
}

// The count index is per epoch: the first count of an epoch builds it,
// any write drops it, and a copy starts without one. Every answer
// equals the streaming count.
TEST(CountIndex, BuildsOnTheFirstCountOfAnEpochAndDropsOnWrite)
{
    const PlatformSpec &spec = findPlatform("ZC702");
    const ChipFaultModel model(spec, planOf(spec));
    fpga::Device device(spec);
    const auto view = [&](std::uint32_t b) {
        return DomainView{model.ladders(b), device.bram(b).words()};
    };
    const auto count = [&](CountIndex &index, double v) {
        return index.count(device.contentEpoch(), v, spec.bramCount, view);
    };
    const double vcrash = spec.calib.bramVcrashMv / 1000.0;
    const double vmid = vcrash + 0.015;

    CountIndex index;
    EXPECT_FALSE(index.built());
    // Each epoch builds its own index on its first count.
    for (std::uint16_t pattern : {0xFFFF, 0x0F0F, 0xFFFF}) {
        device.fillAll(pattern);
        EXPECT_EQ(count(index, vcrash),
                  model.countDeviceFaults(device, vcrash));
        EXPECT_TRUE(index.built());
        EXPECT_GT(index.size(), 0u);
    }
    const std::size_t size = index.size();
    EXPECT_EQ(count(index, vmid), model.countDeviceFaults(device, vmid));
    EXPECT_EQ(count(index, vcrash), model.countDeviceFaults(device, vcrash));
    EXPECT_EQ(index.size(), size);

    CountIndex copy(index);
    EXPECT_FALSE(copy.built());
    CountIndex assigned;
    count(assigned, vcrash);
    ASSERT_TRUE(assigned.built());
    assigned = index;
    EXPECT_FALSE(assigned.built());

    // A write after the build: a new epoch, indexed afresh. Clearing a
    // faulty BRAM changes the total, so a stale index would show.
    std::uint32_t faulty = 0;
    while (model.countBramFaults(device.bram(faulty), faulty, vcrash) == 0)
        ++faulty;
    const std::uint64_t before = count(index, vcrash);
    device.bram(faulty).fill(0x0000);
    EXPECT_NE(model.countDeviceFaults(device, vcrash), before);
    EXPECT_EQ(count(index, vcrash), model.countDeviceFaults(device, vcrash));
    EXPECT_TRUE(index.built());
    EXPECT_EQ(count(index, vmid), model.countDeviceFaults(device, vmid));
}

TEST(ChipFaultModel, ItdReducesFaultsAtHigherTemperature)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const ChipFaultModel model(spec, planOf(spec));
    fpga::Device device(spec);
    device.fillAll(0xFFFF);

    auto count_at = [&](double temp_c) {
        const double v = model.effectiveVoltage(0.54, temp_c);
        double total = 0.0;
        for (std::uint32_t b = 0; b < spec.bramCount; ++b)
            total += model.countBramFaults(device.bram(b), b, v);
        return total;
    };

    const double at50 = count_at(50.0);
    const double at80 = count_at(80.0);
    ASSERT_GT(at80, 0.0);
    // Paper: >3x reduction on VC707 from 50 to 80 degC.
    EXPECT_NEAR(at50 / at80, 3.0, 0.5);
    // Monotonicity across the intermediate setpoints.
    EXPECT_GT(at50, count_at(60.0));
    EXPECT_GT(count_at(60.0), count_at(70.0));
    EXPECT_GT(count_at(70.0), at80);
}

TEST(ChipFaultModel, EffectiveVoltageComposition)
{
    const PlatformSpec &spec = findPlatform("VC707");
    const ChipFaultModel model(spec, planOf(spec));
    EXPECT_DOUBLE_EQ(model.effectiveVoltage(0.6, referenceTempC), 0.6);
    EXPECT_NEAR(model.effectiveVoltage(0.6, referenceTempC + 10.0),
                0.6 + spec.calib.itdMvPerC * 10.0 / 1000.0, 1e-12);
    EXPECT_NEAR(model.effectiveVoltage(0.6, referenceTempC, 0.001), 0.601,
                1e-12);
}

// Regression for the exact-equality boundary of the shared fault
// predicate: a weak cell whose threshold EQUALS the probe voltage is
// healthy (cellFailsAt is a strict <), and the packed ladder's
// partition_point agrees with the scalar reference walker on that exact
// boundary. Before the predicate was shared, the ladder compared the
// double probe against float thresholds and the walker promoted the
// other way, so a cell pinned exactly at the probe could count on one
// path and not the other.
TEST(ChipFaultModel, CellAtExactProbeVoltageIsHealthyOnBothPaths)
{
    const PlatformSpec &spec = findPlatform("ZC702");
    const ChipFaultModel model(spec, planOf(spec));

    // Find a weak cell and use ITS threshold as the probe voltage,
    // promoted float->double exactly as the predicate does.
    std::uint32_t bram = 0;
    float threshold = -1.0f;
    for (std::uint32_t b = 0; b < spec.bramCount && threshold < 0.0f;
         ++b) {
        for (const WeakCell &cell : model.weakCells(b)) {
            if (cell.oneToZero) {
                bram = b;
                threshold = cell.thresholdV;
                break;
            }
        }
    }
    ASSERT_GT(threshold, 0.0f) << "chip with no weak 1->0 cells";

    fpga::Bram written;
    for (int row = 0; row < fpga::bramRows; ++row)
        written.writeRow(row, 0xFFFF);

    const double exactly = static_cast<double>(threshold);
    const double just_below =
        static_cast<double>(std::nextafter(threshold, 0.0f));

    // Equality => healthy, on the packed path AND the reference walker.
    const int packed_at = model.countFaults(written.words(), bram,
                                            exactly);
    const int reference_at =
        model.countBramFaultsReference(written, bram, exactly);
    EXPECT_EQ(packed_at, reference_at);

    // One ulp below the threshold the cell fails — on both paths.
    const int packed_below = model.countFaults(written.words(), bram,
                                               just_below);
    const int reference_below =
        model.countBramFaultsReference(written, bram, just_below);
    EXPECT_EQ(packed_below, reference_below);
    EXPECT_GT(packed_below, packed_at);

    // The predicate itself pins the boundary.
    EXPECT_FALSE(cellFailsAt(threshold, exactly));
    EXPECT_TRUE(cellFailsAt(threshold, just_below));
}

} // namespace
} // namespace uvolt::vmodel
