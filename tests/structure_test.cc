/**
 * @file
 * Tests for FVM persistence (fvm_io) and within-BRAM structural
 * analysis (structure): the column-clustering signature of the fault
 * model must be measurable from readback data, and disappear when the
 * model is configured IID.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/fault_analyzer.hh"
#include "harness/fvm.hh"
#include "harness/fvm_io.hh"
#include "harness/structure.hh"
#include "pmbus/board.hh"
#include "util/stats.hh"

namespace uvolt::harness
{
namespace
{

// ---------------------------------------------------------------------
// structure analysis
// ---------------------------------------------------------------------

/**
 * The 95th-percentile chi-square critical value for 15 degrees of
 * freedom: per-BRAM scores above this reject column uniformity.
 */
constexpr double chiSquare95Df15 = 24.996;

/**
 * Chi-square statistic of one BRAM's per-column histogram against the
 * uniform hypothesis (15 degrees of freedom). Large values mean the
 * faults cluster on a few columns.
 */
double
columnChiSquare(const BramStructure &bram)
{
    if (bram.faults == 0)
        return 0.0;
    const double expected =
        static_cast<double>(bram.faults) / fpga::bramCols;
    double chi = 0.0;
    for (int count : bram.perColumn) {
        const double diff = count - expected;
        chi += diff * diff / expected;
    }
    return chi;
}

/** Mean top-two-column share over BRAMs with >= min_faults faults. */
double
meanTopTwoShare(const StructureReport &report, int min_faults = 8)
{
    RunningStats stats;
    for (const auto &entry : report.perBram) {
        if (entry.faults >= min_faults)
            stats.add(entry.topTwoColumnShare());
    }
    return stats.mean();
}

/** Median per-BRAM chi-square over BRAMs with >= min_faults faults. */
double
medianChiSquare(const StructureReport &report, int min_faults = 8)
{
    std::vector<double> scores;
    for (const auto &entry : report.perBram) {
        if (entry.faults >= min_faults)
            scores.push_back(columnChiSquare(entry));
    }
    return scores.empty() ? 0.0 : median(std::move(scores));
}

std::vector<FaultObservation>
readbackFaults(pmbus::Board &board)
{
    board.device().fillAll(0xFFFF);
    board.setVccBramMv(board.spec().calib.bramVcrashMv);
    board.startReferenceRun();
    std::vector<FaultObservation> faults;
    FaultSummary summary;
    std::vector<std::uint64_t> plane(fpga::bramWords);
    for (std::uint32_t b = 0; b < board.device().bramCount(); ++b) {
        board.tryReadBramPacked(b, plane).orFatal();
        diffBram(board.device().bram(b), plane, b, faults, summary);
    }
    board.softReset();
    return faults;
}

TEST(StructureTest, HandBuiltHistogram)
{
    std::vector<FaultObservation> faults;
    for (int i = 0; i < 30; ++i)
        faults.push_back({7, static_cast<std::uint16_t>(i), 5, true});
    for (int i = 0; i < 10; ++i)
        faults.push_back({7, static_cast<std::uint16_t>(i), 11, true});
    faults.push_back({9, 0, 0, true});

    const StructureReport report = analyzeStructure(faults);
    EXPECT_EQ(report.totalFaults, 41u);
    ASSERT_EQ(report.perBram.size(), 2u);
    const auto &bram7 = report.perBram.front();
    EXPECT_EQ(bram7.bram, 7u);
    EXPECT_EQ(bram7.faults, 40);
    EXPECT_EQ(bram7.perColumn[5], 30);
    EXPECT_EQ(bram7.perColumn[11], 10);
    EXPECT_DOUBLE_EQ(bram7.topTwoColumnShare(), 1.0);
    EXPECT_GT(columnChiSquare(bram7), chiSquare95Df15);
    EXPECT_EQ(report.columnTotals[5], 30u);
}

TEST(StructureTest, ChipFaultsShowColumnClustering)
{
    pmbus::Board board(fpga::findPlatform("KC705-A"));
    const auto faults = readbackFaults(board);
    ASSERT_GT(faults.size(), 500u);
    const StructureReport report = analyzeStructure(faults);
    // With the default 70%-on-2-columns model, busy BRAMs concentrate
    // most faults on their top-two columns and reject uniformity.
    EXPECT_GT(meanTopTwoShare(report, 16), 0.55);
    EXPECT_GT(medianChiSquare(report, 16), chiSquare95Df15);
}

TEST(StructureTest, IidAblationRemovesClustering)
{
    vmodel::VariationParams iid;
    iid.weakColumnShare = 0.0;
    pmbus::Board board(fpga::findPlatform("KC705-A"), iid);
    const auto faults = readbackFaults(board);
    ASSERT_GT(faults.size(), 500u);
    const StructureReport report = analyzeStructure(faults);
    EXPECT_LT(meanTopTwoShare(report, 16), 0.45);
    EXPECT_LT(medianChiSquare(report, 16), chiSquare95Df15);
}

TEST(StructureTest, RenderBramMapShowsWeakColumn)
{
    std::vector<FaultObservation> faults;
    for (int row = 0; row < 200; ++row)
        faults.push_back({3, static_cast<std::uint16_t>(row), 13, true});
    const StructureReport report = analyzeStructure(faults);
    const std::string art = renderBramMap(report.perBram.front(), faults);
    // 32 bands of 16 chars + newlines.
    EXPECT_EQ(art.size(), 32u * 17u);
    // Column 13 is the third character from the left (cols 15, 14, 13).
    int marked = 0;
    std::size_t line_start = 0;
    while (line_start < art.size()) {
        marked += (art[line_start + 2] != '.');
        EXPECT_EQ(art[line_start + 0], '.'); // col 15 clean
        line_start += 17;
    }
    // Rows 0-199 fill the first seven 32-row bands.
    EXPECT_EQ(marked, 7);
}

TEST(StructureTest, EmptyInput)
{
    const StructureReport report = analyzeStructure({});
    EXPECT_EQ(report.totalFaults, 0u);
    EXPECT_TRUE(report.perBram.empty());
    EXPECT_EQ(meanTopTwoShare(report), 0.0);
    EXPECT_EQ(medianChiSquare(report), 0.0);
}

// ---------------------------------------------------------------------
// FVM persistence
// ---------------------------------------------------------------------

class FvmIoTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        std::filesystem::remove_all(testDir());
    }

    /**
     * A scratch directory of the running test's own. ctest runs each
     * test as a separate process, in parallel, so tests must not share
     * one: another test's TearDown would delete this one's files.
     */
    static std::filesystem::path
    testDir()
    {
        return std::filesystem::temp_directory_path() /
            (std::string("uvolt_fvm_io_test_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    }

    static std::string
    testPath(const char *name)
    {
        return (testDir() / name).string();
    }

    static Fvm
    sampleFvm(const fpga::Floorplan &plan)
    {
        std::vector<int> faults(plan.bramCount());
        for (std::uint32_t b = 0; b < plan.bramCount(); ++b)
            faults[b] = static_cast<int>((b * 7) % 23);
        return Fvm("ZC702", plan, std::move(faults));
    }
};

TEST_F(FvmIoTest, RoundTrip)
{
    const auto plan = fpga::Floorplan::columnGrid(280, 70);
    const Fvm original = sampleFvm(plan);
    const std::string path = testPath("zc702.fvm");
    ASSERT_TRUE(trySaveFvm(original, plan, path).ok());

    const auto loaded = tryLoadFvm(plan, path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().platform(), "ZC702");
    EXPECT_EQ(loaded.value().perBramFaults(), original.perBramFaults());
}

TEST_F(FvmIoTest, MissingFile)
{
    const auto plan = fpga::Floorplan::columnGrid(280, 70);
    EXPECT_EQ(tryLoadFvm(plan, testPath("nonexistent.fvm")).code(),
              Errc::cacheMiss);
}

TEST_F(FvmIoTest, GeometryMismatchRejected)
{
    const auto plan = fpga::Floorplan::columnGrid(280, 70);
    const std::string path = testPath("zc702.fvm");
    ASSERT_TRUE(trySaveFvm(sampleFvm(plan), plan, path).ok());
    const auto other = fpga::Floorplan::columnGrid(890, 120);
    EXPECT_EQ(tryLoadFvm(other, path).code(), Errc::corruptCache);
}

TEST_F(FvmIoTest, CorruptFileRejected)
{
    const auto plan = fpga::Floorplan::columnGrid(280, 70);
    const std::string path = testPath("bad.fvm");
    std::filesystem::create_directories(testDir());
    // A complete, valid map whose header carries a leftover token.
    ASSERT_TRUE(trySaveFvm(sampleFvm(plan), plan, path).ok());
    std::string header_leftover;
    {
        std::ifstream in(path);
        header_leftover.assign(std::istreambuf_iterator<char>(in), {});
    }
    header_leftover.insert(header_leftover.find('\n'), " extra");

    const char *const header = "#uvolt-fvm v1 ZC702 4 70 280\n";
    const std::string malformed[] = {
        std::string(header) + "0,0,5\n0,0,7\n", // duplicate site
        std::string(header) + "3,4,5junk\n",    // trailing garbage
        std::string(header) + "3,4,5,6\n",      // extra field
        header_leftover,
        "not an fvm\n",
    };
    for (const std::string &content : malformed) {
        {
            std::ofstream out(path);
            out << content;
        }
        EXPECT_EQ(tryLoadFvm(plan, path).code(), Errc::corruptCache)
            << content;
    }
}

TEST_F(FvmIoTest, TruncatedFileRejected)
{
    const auto plan = fpga::Floorplan::columnGrid(280, 70);
    const std::string path = testPath("trunc.fvm");
    ASSERT_TRUE(trySaveFvm(sampleFvm(plan), plan, path).ok());
    // Chop off the last line.
    std::string content;
    {
        std::ifstream in(path);
        std::string line;
        std::vector<std::string> lines;
        while (std::getline(in, line))
            lines.push_back(line);
        lines.pop_back();
        for (const auto &kept : lines)
            content += kept + "\n";
    }
    {
        std::ofstream out(path);
        out << content;
    }
    EXPECT_EQ(tryLoadFvm(plan, path).code(), Errc::corruptCache);
}

} // namespace
} // namespace uvolt::harness
