/**
 * @file
 * Tests for the characterization harness against the paper's measured
 * results: region discovery (Fig 1), the Listing-1 sweep (Fig 3),
 * pattern dependence (Fig 4), run-to-run stability (Table II), BRAM
 * clustering (Fig 5), FVM extraction (Figs 6-7), and the heat-chamber
 * study (Fig 8).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "fpga/fault_domain.hh"
#include "harness/clusterer.hh"
#include "harness/experiment.hh"
#include "harness/fault_analyzer.hh"
#include "harness/fvm.hh"
#include "harness/temperature.hh"
#include "pmbus/board.hh"

namespace uvolt::harness
{
namespace
{

using pmbus::Board;

TEST(PatternSpecTest, Labels)
{
    EXPECT_EQ(PatternSpec::allOnes().label(), "16'hFFFF");
    EXPECT_EQ(PatternSpec::fixed(0xAAAA).label(), "16'hAAAA");
    EXPECT_EQ(PatternSpec::random(0.5, 1).label(), "random-50%");
}

TEST(PatternSpecTest, FillFixedAndRandom)
{
    Board board(fpga::findPlatform("ZC702"));
    fillPattern(board, PatternSpec::fixed(0xAAAA));
    EXPECT_EQ(board.device().totalOnes(), board.device().totalBits() / 2);

    fillPattern(board, PatternSpec::random(0.5, 7));
    const double density =
        static_cast<double>(board.device().totalOnes()) /
        static_cast<double>(board.device().totalBits());
    EXPECT_NEAR(density, 0.5, 0.005);

    // Random fills are deterministic in the seed.
    const auto row = board.device().bram(3).readRow(17);
    fillPattern(board, PatternSpec::random(0.5, 7));
    EXPECT_EQ(board.device().bram(3).readRow(17), row);
}

TEST(FaultAnalyzerTest, DiffFindsPolarities)
{
    fpga::Bram written;
    written.fill(0x00FF);
    auto observed = std::vector<std::uint16_t>(fpga::bramRows, 0x00FF);
    observed[5] = 0x00FE;  // bit 0: wrote 1, read 0
    observed[9] = 0x01FF;  // bit 8: wrote 0, read 1

    std::vector<FaultObservation> faults;
    FaultSummary summary;
    diffBram(written, fpga::packRows(observed), 3, faults, summary);

    ASSERT_EQ(faults.size(), 2u);
    EXPECT_EQ(faults[0].bram, 3u);
    EXPECT_EQ(faults[0].row, 5);
    EXPECT_EQ(faults[0].col, 0);
    EXPECT_TRUE(faults[0].oneToZero);
    EXPECT_EQ(faults[1].row, 9);
    EXPECT_EQ(faults[1].col, 8);
    EXPECT_FALSE(faults[1].oneToZero);
    EXPECT_EQ(summary.totalFaults, 2u);
    EXPECT_DOUBLE_EQ(summary.oneToZeroFraction(), 0.5);
}

TEST(FaultAnalyzerTest, PackedDiffMatchesRowsDiff)
{
    fpga::Bram written;
    for (int row = 0; row < fpga::bramRows; ++row)
        written.writeRow(row, static_cast<std::uint16_t>(row * 40503u));

    // Corrupt a scatter of bits in both polarities.
    std::vector<std::uint16_t> observed_rows =
        fpga::unpackRows(written.words());
    for (int row = 0; row < fpga::bramRows; row += 67)
        observed_rows[static_cast<std::size_t>(row)] ^=
            static_cast<std::uint16_t>(1u << (row % 16));

    // The rows diff, one bitcell at a time: row-major, columns
    // ascending, written 1 read 0 is oneToZero.
    std::vector<FaultObservation> from_rows;
    for (int row = 0; row < fpga::bramRows; ++row) {
        const std::uint16_t wrote = written.readRow(row);
        const std::uint16_t read =
            observed_rows[static_cast<std::size_t>(row)];
        for (int col = 0; col < fpga::bramCols; ++col) {
            const bool wrote_one = (wrote >> col) & 1u;
            if (wrote_one == static_cast<bool>((read >> col) & 1u))
                continue;
            FaultObservation fault;
            fault.bram = 5;
            fault.row = static_cast<std::uint16_t>(row);
            fault.col = static_cast<std::uint8_t>(col);
            fault.oneToZero = wrote_one;
            from_rows.push_back(fault);
        }
    }

    std::vector<FaultObservation> from_packed;
    FaultSummary packed_summary;
    diffBram(written, fpga::packRows(observed_rows), 5, from_packed,
             packed_summary);

    ASSERT_EQ(from_packed.size(), from_rows.size());
    ASSERT_GT(from_rows.size(), 0u);
    std::uint64_t one_to_zero = 0;
    for (std::size_t i = 0; i < from_rows.size(); ++i) {
        EXPECT_EQ(from_packed[i].bram, from_rows[i].bram);
        EXPECT_EQ(from_packed[i].row, from_rows[i].row);
        EXPECT_EQ(from_packed[i].col, from_rows[i].col);
        EXPECT_EQ(from_packed[i].oneToZero, from_rows[i].oneToZero);
        one_to_zero += from_rows[i].oneToZero;
    }
    EXPECT_EQ(packed_summary.totalFaults, from_rows.size());
    EXPECT_EQ(packed_summary.oneToZero, one_to_zero);
    EXPECT_EQ(packed_summary.zeroToOne, from_rows.size() - one_to_zero);
}

// diffCounts() is diffBram() without the locations: per BRAM, the total
// and the polarity split equal the location walk's, on real faulty
// readback at Vcrash and on a synthetic scatter of both polarities.
TEST(FaultAnalyzerTest, DiffCountsEqualsDiffBramSummaryAtVcrash)
{
    Board board(fpga::findPlatform("ZC702"));
    fillPattern(board, PatternSpec::random(0.5, 3));
    board.setVccBramMv(board.spec().calib.bramVcrashMv);
    board.startReferenceRun();

    const auto check = [](const fpga::Bram &written,
                          fpga::WordSpan observed, std::uint32_t b) {
        std::vector<FaultObservation> faults;
        FaultSummary walked;
        diffBram(written, observed, b, faults, walked);
        const FaultSummary counted = diffCounts(written.words(), observed);
        EXPECT_EQ(counted.totalFaults, faults.size()) << "BRAM " << b;
        EXPECT_EQ(counted.totalFaults, walked.totalFaults) << "BRAM " << b;
        EXPECT_EQ(counted.oneToZero, walked.oneToZero) << "BRAM " << b;
        EXPECT_EQ(counted.zeroToOne, walked.zeroToOne) << "BRAM " << b;
        return counted;
    };

    FaultSummary device_total;
    for (std::uint32_t b = 0; b < board.device().bramCount(); ++b) {
        auto observed = board.tryReadBramPacked(b);
        ASSERT_TRUE(observed.ok());
        device_total += check(board.device().bram(b), observed.value(), b);
    }
    EXPECT_GT(device_total.totalFaults, 0u);

    const fpga::Bram &written = board.device().bram(0);
    std::vector<std::uint64_t> scattered(written.words().begin(),
                                         written.words().end());
    for (std::size_t w = 0; w < scattered.size(); w += 3)
        scattered[w] ^= std::uint64_t{0x8001} << (w % 48);
    const FaultSummary synthetic = check(written, scattered, 0);
    EXPECT_GT(synthetic.oneToZero, 0u);
    EXPECT_GT(synthetic.zeroToOne, 0u);
}

TEST(FaultAnalyzerTest, PerMbitConversion)
{
    // 652 faults over exactly 1 Mbit is 652 per Mbit.
    EXPECT_DOUBLE_EQ(faultsPerMbit(652.0, 1024 * 1024), 652.0);
    // VC707: paper's whole-chip rate.
    const auto &spec = fpga::findPlatform("VC707");
    const auto bits = static_cast<std::uint64_t>(spec.bramCount) * 16384;
    EXPECT_NEAR(faultsPerMbit(652.0 * spec.totalMbit(), bits), 652.0,
                1e-9);
}

TEST(RegionDiscovery, MatchesCalibrationOnAllPlatforms)
{
    // Fig 1a: the discovered SAFE/CRITICAL/CRASH boundaries equal the
    // platform's measured Vmin/Vcrash.
    for (const auto &spec : fpga::platformCatalog()) {
        Board board(spec);
        const RegionResult result =
            tryDiscoverRegions(board, fpga::RailId::VccBram).orFatal();
        EXPECT_EQ(result.vminMv, spec.calib.bramVminMv) << spec.name;
        EXPECT_EQ(result.vcrashMv, spec.calib.bramVcrashMv) << spec.name;
        EXPECT_NEAR(result.guardband(),
                    1.0 - spec.calib.bramVminMv / 1000.0, 1e-12);
        // The board is left reset.
        EXPECT_EQ(board.vccBramMv(), spec.vnomMv);
    }
}

TEST(RegionDiscovery, VccIntRegions)
{
    // Fig 1b counterpart for the internal rail.
    const auto &spec = fpga::findPlatform("VC707");
    Board board(spec);
    const RegionResult result =
        tryDiscoverRegions(board, fpga::RailId::VccInt).orFatal();
    EXPECT_EQ(result.vminMv, spec.calib.intVminMv);
    EXPECT_EQ(result.vcrashMv, spec.calib.intVcrashMv);
}

class SweepFixture : public ::testing::Test
{
  protected:
    static const SweepResult &
    vc707Sweep()
    {
        static Board board(fpga::findPlatform("VC707"));
        static const SweepResult sweep = runCriticalSweep(board);
        return sweep;
    }
};

TEST_F(SweepFixture, CoversCriticalRegionIn10mvSteps)
{
    const auto &sweep = vc707Sweep();
    ASSERT_EQ(sweep.points.size(), 8u); // 610..540 inclusive
    EXPECT_EQ(sweep.points.front().vccBramMv, 610);
    EXPECT_EQ(sweep.points.back().vccBramMv, 540);
    for (std::size_t i = 1; i < sweep.points.size(); ++i) {
        EXPECT_EQ(sweep.points[i - 1].vccBramMv -
                      sweep.points[i].vccBramMv, 10);
    }
}

TEST_F(SweepFixture, VcrashRateMatchesPaper)
{
    // Fig 3a: 652 faults per Mbit at Vcrash on VC707 (median of 100).
    const auto &at_vcrash = vc707Sweep().atVcrash();
    EXPECT_NEAR(at_vcrash.faultsPerMbit, 652.0, 652.0 * 0.05);
}

TEST_F(SweepFixture, FaultRateGrowsExponentially)
{
    const auto &sweep = vc707Sweep();
    // No faults at Vmin, then a roughly constant multiplicative step.
    EXPECT_LT(sweep.points.front().medianFaults, 10.0);
    double previous = 0.0;
    for (const auto &point : sweep.points) {
        EXPECT_GE(point.medianFaults, previous * 1.2);
        previous = point.medianFaults;
    }
    // Growth spanning >3 orders of magnitude over the 70 mV window.
    EXPECT_GT(sweep.atVcrash().medianFaults,
              1000.0 * std::max(1.0, sweep.points.front().medianFaults));
}

TEST_F(SweepFixture, StabilityMatchesTableII)
{
    // Table II for VC707: avg 652, min 630, max 669, stddev 7.3 /Mbit.
    const auto &point = vc707Sweep().atVcrash();
    const double to_mbit = point.faultsPerMbit / point.medianFaults;
    EXPECT_NEAR(point.runStats.mean() * to_mbit, 652.0, 35.0);
    EXPECT_NEAR(point.runStats.stddev() * to_mbit, 7.3, 3.5);
    EXPECT_GT(point.runStats.minimum() * to_mbit, 600.0);
    EXPECT_LT(point.runStats.maximum() * to_mbit, 700.0);
    EXPECT_EQ(point.runStats.count(), 100u);
}

TEST_F(SweepFixture, FlipsAreAlmostAllOneToZero)
{
    EXPECT_GT(vc707Sweep().atVcrash().oneToZeroFraction, 0.99);
}

TEST_F(SweepFixture, PowerDropsMonotonically)
{
    const auto &sweep = vc707Sweep();
    for (std::size_t i = 1; i < sweep.points.size(); ++i)
        EXPECT_LT(sweep.points[i].bramPowerW,
                  sweep.points[i - 1].bramPowerW);
    // >10x below nominal everywhere in the critical region.
    EXPECT_LT(sweep.points.front().bramPowerW, 2.80 / 10.0);
}

TEST_F(SweepFixture, ClusteringMatchesFig5)
{
    const auto &spec = fpga::findPlatform("VC707");
    const fpga::Floorplan plan =
        fpga::Floorplan::columnGrid(spec.bramCount, spec.columnHeight);
    const Fvm fvm = fvmFromSweep(vc707Sweep(), plan);

    // Fig 5 statistics: 38.9% never-faulty, max ~2.84%, small mean.
    EXPECT_NEAR(fvm.faultFreeFraction(), 0.389, 0.02);
    EXPECT_LT(fvm.maxRate(), 0.0285);
    EXPECT_GT(fvm.maxRate(), 0.01);
    EXPECT_NEAR(fvm.meanRate(), 0.0006, 0.0003);

    const ClusterReport report = clusterBrams(fvm);
    // A vast majority of BRAMs must be low-vulnerable (paper: 88.6%).
    EXPECT_GT(report.shareOf(VulnClass::Low), 0.75);
    EXPECT_LT(report.shareOf(VulnClass::High), 0.1);
    EXPECT_LT(report.meanRates[0], report.meanRates[1]);
    EXPECT_LT(report.meanRates[1], report.meanRates[2]);
    // The low cluster's BRAMs carry only a few faults each.
    EXPECT_LT(report.meanCounts[0], 25.0);
    // Low-vulnerable pool is sorted most-reliable-first.
    ASSERT_GT(report.lowVulnerableBrams.size(), 2u);
    EXPECT_LE(fvm.faultsOf(report.lowVulnerableBrams[0]),
              fvm.faultsOf(report.lowVulnerableBrams.back()));
    EXPECT_EQ(fvm.faultsOf(report.lowVulnerableBrams[0]), 0);
}

TEST_F(SweepFixture, FvmRenderHasGridShape)
{
    const auto &spec = fpga::findPlatform("VC707");
    const fpga::Floorplan plan =
        fpga::Floorplan::columnGrid(spec.bramCount, spec.columnHeight);
    const Fvm fvm = fvmFromSweep(vc707Sweep(), plan);
    const std::string art = fvm.render(plan);
    // height lines of width characters each.
    EXPECT_EQ(art.size(),
              static_cast<std::size_t>(plan.height()) *
                  (static_cast<std::size_t>(plan.width()) + 1));
    // Contains empty sites, clean BRAMs, and faulty BRAMs.
    EXPECT_NE(art.find(' '), std::string::npos);
    EXPECT_NE(art.find('.'), std::string::npos);
    EXPECT_NE(art.find_first_of("123456789#"), std::string::npos);
}

TEST(SweepTest, PatternDependenceMatchesFig4)
{
    Board board(fpga::findPlatform("VC707"));
    SweepOptions options;
    options.runsPerLevel = 21;
    options.collectPerBram = false;
    options.fromMv = 540; // only the deepest point matters here

    options.pattern = PatternSpec::allOnes();
    const double ones =
        runCriticalSweep(board, options).atVcrash().medianFaults;

    options.pattern = PatternSpec::fixed(0xAAAA);
    const double aaaa =
        runCriticalSweep(board, options).atVcrash().medianFaults;

    options.pattern = PatternSpec::fixed(0x5555);
    const double x5555 =
        runCriticalSweep(board, options).atVcrash().medianFaults;

    options.pattern = PatternSpec::random(0.5, 3);
    const double random50 =
        runCriticalSweep(board, options).atVcrash().medianFaults;

    options.pattern = PatternSpec::fixed(0x0000);
    const double zeros =
        runCriticalSweep(board, options).atVcrash().medianFaults;

    // Fig 4: FFFF is ~2x any 50% pattern; permutations of the same
    // density are equivalent; 0000 shows only a handful of faults.
    EXPECT_NEAR(ones / aaaa, 2.0, 0.2);
    EXPECT_NEAR(aaaa / x5555, 1.0, 0.15);
    EXPECT_NEAR(aaaa / random50, 1.0, 0.15);
    EXPECT_LT(zeros, ones * 0.005);
}

TEST(SweepTest, DieToDieDifferenceMatchesFig7)
{
    Board board_a(fpga::findPlatform("KC705-A"));
    Board board_b(fpga::findPlatform("KC705-B"));
    SweepOptions options;
    options.runsPerLevel = 11;
    options.fromMv = 540;
    options.downToMv = 540;
    SweepOptions options_b = options;
    options_b.fromMv = 550;
    options_b.downToMv = 550;

    const SweepResult sweep_a = runCriticalSweep(board_a, options);
    const SweepResult sweep_b = runCriticalSweep(board_b, options_b);

    // Paper: KC705-A shows ~4.1x the fault rate of KC705-B at Vcrash.
    const double rate_a = sweep_a.atVcrash().faultsPerMbit;
    const double rate_b = sweep_b.atVcrash().faultsPerMbit;
    EXPECT_NEAR(rate_a / rate_b, 4.1, 0.6);

    // And the fault *locations* differ: the per-BRAM maps disagree.
    const auto &faults_a = sweep_a.atVcrash().perBramFaults;
    const auto &faults_b = sweep_b.atVcrash().perBramFaults;
    int disagreements = 0;
    for (std::size_t i = 0; i < faults_a.size(); ++i)
        disagreements += (faults_a[i] != faults_b[i]);
    EXPECT_GT(disagreements, static_cast<int>(faults_a.size() / 4));
}

TEST(TemperatureStudyTest, ItdMatchesFig8)
{
    Board board(fpga::findPlatform("VC707"));
    const TemperatureStudy study =
        runTemperatureStudy(board, {50.0, 60.0, 70.0, 80.0}, 15);

    ASSERT_EQ(study.series.size(), 4u);
    // Paper: >3x fault-rate reduction from 50 to 80 degC on VC707.
    EXPECT_NEAR(study.reductionFactor(80.0, 50.0), 3.0, 0.5);
    // Monotone: hotter runs fault less at Vcrash.
    for (std::size_t i = 1; i < study.series.size(); ++i) {
        EXPECT_LT(study.series[i].sweep.atVcrash().medianFaults,
                  study.series[i - 1].sweep.atVcrash().medianFaults);
    }
    // The chamber is restored afterwards.
    EXPECT_DOUBLE_EQ(board.ambientC(), 50.0);
}

TEST(TemperatureStudyTest, CrossPlatformCrossoverMatchesFig8)
{
    // Paper: VC707 is 156% worse than KC705-A at 50 degC but ~11.6%
    // better at 80 degC (stronger ITD on the performance-optimized
    // part).
    Board vc707(fpga::findPlatform("VC707"));
    Board kc705a(fpga::findPlatform("KC705-A"));
    const auto study_v = runTemperatureStudy(vc707, {50.0, 80.0}, 15);
    const auto study_k = runTemperatureStudy(kc705a, {50.0, 80.0}, 15);

    const double v50 = study_v.series[0].sweep.atVcrash().faultsPerMbit;
    const double v80 = study_v.series[1].sweep.atVcrash().faultsPerMbit;
    const double k50 = study_k.series[0].sweep.atVcrash().faultsPerMbit;
    const double k80 = study_k.series[1].sweep.atVcrash().faultsPerMbit;

    EXPECT_NEAR(v50 / k50, 2.56, 0.3); // +156% at 50 degC
    EXPECT_LT(v80, k80);               // crossover by 80 degC
}

} // namespace
} // namespace uvolt::harness
