/**
 * @file
 * Tests for the multi-technology MemoryDevice abstraction: catalog
 * resolution, interface conformance of all three backends, the
 * epoch/memo isolation contract of copies and clones, the per-backend
 * fault laws (HBM whole-lane granularity, MoRS spatial clustering), the
 * backend-generic sweep with slicing/resume, and the heterogeneous
 * fleet path through Campaign/FleetEngine — bit-identical at any
 * worker count, with technology-tagged cache keys and manifests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <vector>

#include "fpga/device.hh"
#include "fpga/fault_domain.hh"
#include "fpga/platform.hh"
#include "harness/campaign.hh"
#include "harness/fleet.hh"
#include "harness/ledger.hh"
#include "mem/bram_backend.hh"
#include "mem/catalog.hh"
#include "mem/hbm_backend.hh"
#include "mem/memory_device.hh"
#include "mem/sram_backend.hh"
#include "mem/sweep.hh"
#include "pmbus/board.hh"
#include "util/thread_pool.hh"
#include "vmodel/chip_fault_model.hh"

namespace uvolt::mem
{
namespace
{

/** One representative name per technology. */
const char *const kOnePerTech[] = {"VC707", "HBM2-A", "MORS-SRAM-A"};

double
mv(int millivolts)
{
    return millivolts / 1000.0;
}

// ---------------------------------------------------------------------
// Catalog resolution
// ---------------------------------------------------------------------

TEST(MemCatalog, NamesResolveToTheirTechnology)
{
    EXPECT_EQ(technologyOfName("VC707"), Technology::bram);
    EXPECT_EQ(technologyOfName("ZC702"), Technology::bram);
    EXPECT_EQ(technologyOfName("HBM2-A"), Technology::hbm);
    EXPECT_EQ(technologyOfName("HBM2-B"), Technology::hbm);
    EXPECT_EQ(technologyOfName("MORS-SRAM-A"), Technology::sram);
    EXPECT_EQ(technologyOfName("MORS-SRAM-B"), Technology::sram);
}

TEST(MemCatalog, KnownDeviceCoversEveryCatalogWithoutFatal)
{
    EXPECT_TRUE(knownDevice("VC707"));
    for (const std::string &name : extendedCatalogNames())
        EXPECT_TRUE(knownDevice(name)) << name;
    EXPECT_FALSE(knownDevice("NOT-A-DEVICE"));
}

TEST(MemCatalog, TraitsMatchTheConstructedBackend)
{
    for (const char *name : kOnePerTech) {
        const DeviceTraits traits = traitsOfName(name);
        const auto device = makeDevice(name);
        ASSERT_NE(device, nullptr) << name;
        EXPECT_EQ(traits.name, device->traits().name);
        EXPECT_EQ(traits.dieId, device->traits().dieId);
        EXPECT_EQ(traits.technology, device->technology());
        EXPECT_EQ(traits.domainCount, device->domainCount());
        EXPECT_EQ(traits.wordsPerDomain, device->traits().wordsPerDomain);
        EXPECT_EQ(traits.vminMv, device->traits().vminMv);
        EXPECT_EQ(traits.vcrashMv, device->traits().vcrashMv);
    }
}

// ---------------------------------------------------------------------
// Interface conformance, uniformly over every backend
// ---------------------------------------------------------------------

class BackendConformance : public ::testing::TestWithParam<const char *>
{
  protected:
    std::unique_ptr<MemoryDevice>
    device() const
    {
        return makeDevice(GetParam());
    }
};

TEST_P(BackendConformance, FillProgramsEveryLaneOfEveryDomain)
{
    auto device = this->device();
    device->fill(0xA5A5);
    const std::uint64_t expected_word = 0xA5A5A5A5A5A5A5A5ull;
    const std::uint32_t stride = device->domainCount() / 7 + 1;
    for (std::uint32_t d = 0; d < device->domainCount(); d += stride) {
        const fpga::WordSpan words = device->domainWords(d);
        ASSERT_EQ(words.size(), device->traits().wordsPerDomain);
        for (std::uint64_t word : words)
            ASSERT_EQ(word, expected_word);
    }
}

TEST_P(BackendConformance, MutationsBumpTheContentEpoch)
{
    auto device = this->device();
    const std::uint64_t epoch0 = device->contentEpoch();
    device->fill(0xFFFF);
    const std::uint64_t epoch1 = device->contentEpoch();
    EXPECT_GT(epoch1, epoch0);
    const std::vector<std::uint64_t> plane(
        device->traits().wordsPerDomain, 0x1234u);
    device->assignDomainWords(0, plane);
    EXPECT_GT(device->contentEpoch(), epoch1);
}

TEST_P(BackendConformance, NoFaultsAtOrAboveVmin)
{
    auto device = this->device();
    device->fill(0xFFFF);
    const DeviceTraits &traits = device->traits();
    EXPECT_EQ(device->countFaults(mv(traits.vminMv)), 0u);
    EXPECT_EQ(device->countFaults(mv(traits.vnomMv)), 0u);
}

TEST_P(BackendConformance, FaultsGrowTowardVcrash)
{
    auto device = this->device();
    device->fill(0xFFFF);
    const DeviceTraits &traits = device->traits();
    std::uint64_t previous = 0;
    for (int level = traits.vminMv; level >= traits.vcrashMv;
         level -= 10) {
        const std::uint64_t faults = device->countFaults(mv(level));
        EXPECT_GE(faults, previous) << "at " << level << " mV";
        previous = faults;
    }
    EXPECT_GT(previous, 0u);
}

TEST_P(BackendConformance, PackedCountEqualsReadbackDiff)
{
    auto device = this->device();
    device->fill(0xFFFF);
    const double v = mv(device->traits().vcrashMv);
    const std::uint32_t stride = device->domainCount() / 5 + 1;
    for (std::uint32_t d = 0; d < device->domainCount(); d += stride) {
        const auto readback = device->readDomainPacked(d, v);
        EXPECT_EQ(static_cast<std::uint64_t>(
                      device->countDomainFaults(d, v)),
                  fpga::diffPopcount(device->domainWords(d), readback));
    }
}

TEST_P(BackendConformance, PowerDropsMonotonicallyWithVoltage)
{
    auto device = this->device();
    const DeviceTraits &traits = device->traits();
    double previous = device->railPowerW(mv(traits.vnomMv)) + 1e-9;
    for (int level = traits.vnomMv; level >= traits.vcrashMv;
         level -= 20) {
        const double watts = device->railPowerW(mv(level));
        EXPECT_GT(watts, 0.0);
        EXPECT_LE(watts, previous);
        previous = watts;
    }
    EXPECT_LT(previous, device->railPowerW(mv(traits.vnomMv)));
}

TEST_P(BackendConformance, SameNameSynthesizesTheSameDevice)
{
    auto a = makeDevice(GetParam());
    auto b = makeDevice(GetParam());
    a->fill(0xFFFF);
    b->fill(0xFFFF);
    for (int level = a->traits().vminMv; level >= a->traits().vcrashMv;
         level -= 25) {
        EXPECT_EQ(a->countFaults(mv(level)), b->countFaults(mv(level)))
            << "at " << level << " mV";
    }
}

// Satellite regression: copies/clones must never serve a stale memo
// after divergent writes. The memo is keyed on (epoch, voltage); if a
// clone shared its source's epoch counter, writing 0x0000 into the
// clone would not invalidate a total memoized on the source.
TEST_P(BackendConformance, CloneDivergenceNeverSharesMemoizedCounts)
{
    auto source = this->device();
    source->fill(0xFFFF);
    const double v = mv(source->traits().vcrashMv);
    const std::uint64_t all_ones = source->countFaults(v); // memoized

    auto clone = source->clone();
    ASSERT_NE(clone, nullptr);
    EXPECT_EQ(clone->countFaults(v), all_ones);

    // Diverge the clone: all-zero content kills every 1->0 fault.
    clone->fill(0x0000);
    const std::uint64_t all_zeros = clone->countFaults(v);
    EXPECT_NE(all_zeros, all_ones);

    // The source is untouched and must still see the all-ones total —
    // both from its (still valid) memo and from a fresh recount.
    EXPECT_EQ(source->countFaults(v), all_ones);
    source->fill(0xFFFF); // bump epoch, force recount
    EXPECT_EQ(source->countFaults(v), all_ones);

    // And diverging the source must not leak back into the clone.
    source->fill(0x0000);
    EXPECT_EQ(clone->countFaults(v), all_zeros);
    EXPECT_EQ(source->countFaults(v), clone->countFaults(v));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformance,
                         ::testing::ValuesIn(kOnePerTech),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (auto &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// ---------------------------------------------------------------------
// Per-backend fault-law specifics
// ---------------------------------------------------------------------

TEST(BramBackendTest, BitIdenticalToTheChipFaultModel)
{
    const fpga::PlatformSpec &spec = fpga::findPlatform("ZC702");
    auto model = pmbus::sharedChipModel(spec);
    BramBackend backend(spec, model);
    backend.fill(0xFFFF);

    fpga::Device reference(spec);
    reference.fillAll(0xFFFF);

    for (int level = spec.calib.bramVcrashMv;
         level <= spec.calib.bramVminMv; level += 20) {
        const double v = mv(level);
        std::uint64_t expected = 0;
        for (std::uint32_t b = 0; b < spec.bramCount; ++b) {
            expected += static_cast<std::uint64_t>(model->countFaults(
                reference.bram(b).words(), b, v));
        }
        EXPECT_EQ(backend.countFaults(v), expected) << level;
    }
}

TEST(HbmBackendTest, FaultsComeInWholeLaneUnits)
{
    const HbmSpec *spec = findHbm("HBM2-A");
    ASSERT_NE(spec, nullptr);
    HbmBackend backend(*spec);
    backend.fill(0xFFFF);

    // With a uniform all-ones pattern, every active 1->0 weak row
    // misreads its entire 16-bit lane — fault counts in each bank are
    // multiples of 16 from the 1->0 population (0->1 rows contribute
    // nothing against all-ones... they fault where stored bits are 0).
    const double v = mv(spec->vcrashMv);
    std::uint64_t banks_with_faults = 0;
    for (std::uint32_t bank = 0; bank < spec->bankCount(); ++bank) {
        const int faults = backend.countDomainFaults(bank, v);
        std::uint64_t expected = 0;
        for (const HbmBackend::WeakRow &row : backend.weakRows(bank)) {
            if (vmodel::cellFailsAt(row.thresholdV, v) && row.oneToZero)
                expected += 16;
        }
        EXPECT_EQ(static_cast<std::uint64_t>(faults), expected)
            << "bank " << bank;
        EXPECT_EQ(faults % 16, 0) << "bank " << bank;
        banks_with_faults += faults > 0;
    }
    EXPECT_GT(banks_with_faults, 0u);
}

TEST(HbmBackendTest, RetentionDegradesWhenHot)
{
    const HbmSpec *spec = findHbm("HBM2-A");
    ASSERT_NE(spec, nullptr);
    HbmBackend backend(*spec);
    backend.fill(0xFFFF);
    const double rail = mv(spec->vcrashMv + 40);
    // Opposite of BRAM's ITD: heating LOWERS the effective voltage.
    EXPECT_LT(backend.effectiveVoltage(rail, 80.0),
              backend.effectiveVoltage(rail, 50.0));
    EXPECT_GE(backend.countFaults(backend.effectiveVoltage(rail, 80.0)),
              backend.countFaults(backend.effectiveVoltage(rail, 50.0)));
}

TEST(SramBackendTest, WeakCellsClusterOnRowsAndColumns)
{
    const SramSpec *spec = findSram("MORS-SRAM-A");
    ASSERT_NE(spec, nullptr);
    SramMorsBackend backend(*spec);

    // MoRS statistics: across the whole chip, the configured shares of
    // weak cells must land on a handful of weak rows / columns. With
    // weakRowsPerArray = 4 of 512 rows, a uniform model would put under
    // 1% of cells on the top-4 rows; the MoRS sampler puts ~35% there.
    std::uint64_t total = 0, on_top_rows = 0, on_top_cols = 0;
    for (std::uint32_t array = 0; array < spec->arrayCount; ++array) {
        std::map<std::uint32_t, std::uint64_t> by_row;
        std::map<std::uint32_t, std::uint64_t> by_col;
        for (const SramMorsBackend::WeakCell &cell :
             backend.weakCells(array)) {
            ++by_row[cell.row];
            ++by_col[cell.col];
            ++total;
        }
        std::vector<std::uint64_t> rows, cols;
        for (const auto &[row, count] : by_row)
            rows.push_back(count);
        for (const auto &[col, count] : by_col)
            cols.push_back(count);
        std::sort(rows.rbegin(), rows.rend());
        std::sort(cols.rbegin(), cols.rend());
        for (std::size_t i = 0;
             i < std::min<std::size_t>(rows.size(),
                                       spec->weakRowsPerArray);
             ++i)
            on_top_rows += rows[i];
        for (std::size_t i = 0;
             i < std::min<std::size_t>(cols.size(),
                                       spec->weakColsPerArray);
             ++i)
            on_top_cols += cols[i];
    }
    ASSERT_GT(total, 0u);
    const double row_share = static_cast<double>(on_top_rows) / total;
    const double col_share = static_cast<double>(on_top_cols) / total;
    EXPECT_GT(row_share, spec->weakRowShare * 0.7);
    EXPECT_GT(col_share, spec->weakColShare * 0.7);
}

TEST(SramBackendTest, BothPolaritiesFault)
{
    const SramSpec *spec = findSram("MORS-SRAM-A");
    ASSERT_NE(spec, nullptr);
    SramMorsBackend backend(*spec);
    const double v = mv(spec->vcrashMv);

    backend.fill(0xFFFF);
    const std::uint64_t one_to_zero = backend.countFaults(v);
    backend.fill(0x0000);
    const std::uint64_t zero_to_one = backend.countFaults(v);
    // 6T cells are not 99.9% single-polarity like BRAM: a 70/30 split
    // means both directions must be visible at Vcrash.
    EXPECT_GT(one_to_zero, 0u);
    EXPECT_GT(zero_to_one, 0u);
    EXPECT_GT(one_to_zero, zero_to_one);
}

// Satellite regression: a weak element whose threshold EQUALS the probe
// voltage is healthy (cellFailsAt is a strict <), and the packed ladder
// and the scalar reference walker agree on that boundary exactly.
TEST(BackendBoundary, ThresholdEqualToProbeVoltageIsHealthy)
{
    for (const char *name : {"HBM2-A", "MORS-SRAM-A"}) {
        auto device = makeDevice(name);
        device->fill(0xFFFF);

        // The most-marginal element is pinned to the cap threshold
        // (Vmin - 2 mV, in float) at construction; probing exactly
        // there must see it healthy, and one ulp below must see at
        // least one fault.
        const double probe_hi = mv(device->traits().vminMv);
        const float max_threshold =
            static_cast<float>(mv(device->traits().vminMv) - 0.002);

        std::uint64_t at_cap = 0, below_cap = 0, at_cap_ref = 0;
        const double exactly = static_cast<double>(max_threshold);
        const double just_below =
            static_cast<double>(std::nextafter(max_threshold, 0.0f));
        // Probe under both uniform patterns: the pinned element may be
        // of either polarity, and each polarity only faults against
        // the pattern storing the bit value it flips.
        for (const std::uint16_t pattern : {0xFFFF, 0x0000}) {
            device->fill(pattern);
            for (std::uint32_t d = 0; d < device->domainCount(); ++d) {
                at_cap += static_cast<std::uint64_t>(
                    device->countDomainFaults(d, exactly));
                at_cap_ref += static_cast<std::uint64_t>(
                    device->countDomainFaultsReference(d, exactly));
                below_cap += static_cast<std::uint64_t>(
                    device->countDomainFaults(d, just_below));
            }
        }
        EXPECT_EQ(at_cap, 0u) << name << ": equality must be healthy";
        EXPECT_EQ(at_cap_ref, at_cap) << name;
        EXPECT_GE(below_cap, 1u)
            << name << ": the pinned marginal element must fail one "
                       "ulp below its threshold";
        EXPECT_EQ(device->countFaults(probe_hi), 0u) << name;
    }
}

// ---------------------------------------------------------------------
// Backend-generic sweep: envelope, slicing, resume
// ---------------------------------------------------------------------

TEST(MemSweepTest, CoversVminToVcrashAndEndsFaulty)
{
    auto device = makeDevice("HBM2-A");
    device->fill(0xFFFF);
    MemSweepOptions options;
    options.runsPerLevel = 5;
    options.seed = 42;
    const MemSweepResult sweep = runMemSweep(*device, options);
    EXPECT_EQ(sweep.device, "HBM2-A");
    EXPECT_EQ(sweep.technology, "hbm");
    EXPECT_FALSE(sweep.truncated);
    ASSERT_FALSE(sweep.points.empty());
    EXPECT_GT(sweep.points.front().railMv, device->traits().vminMv);
    EXPECT_EQ(sweep.points.back().railMv, device->traits().vcrashMv);
    EXPECT_GT(sweep.points.back().medianFaults, 0u);
    // Descending rail order, power falling with it.
    for (std::size_t i = 1; i < sweep.points.size(); ++i) {
        EXPECT_LT(sweep.points[i].railMv, sweep.points[i - 1].railMv);
        EXPECT_LT(sweep.points[i].railPowerW,
                  sweep.points[i - 1].railPowerW);
    }
}

TEST(MemSweepTest, SlicedSweepIsBitIdenticalToTheStraightRun)
{
    auto device = makeDevice("MORS-SRAM-A");
    device->fill(0xFFFF);
    MemSweepOptions options;
    options.runsPerLevel = 7;
    options.seed = 7;
    options.collectPerDomain = true;
    const MemSweepResult whole = runMemSweep(*device, options);

    std::vector<MemSweepPoint> sliced;
    std::optional<int> resume;
    for (;;) {
        MemSweepOptions slice = options;
        slice.maxLevels = 3;
        slice.resumeFromMv = resume;
        const MemSweepResult part = runMemSweep(*device, slice);
        sliced.insert(sliced.end(), part.points.begin(),
                      part.points.end());
        if (!part.truncated)
            break;
        resume = sliced.back().railMv;
    }
    ASSERT_EQ(sliced.size(), whole.points.size());
    for (std::size_t i = 0; i < sliced.size(); ++i) {
        EXPECT_EQ(sliced[i].railMv, whole.points[i].railMv);
        EXPECT_EQ(sliced[i].runCounts, whole.points[i].runCounts);
        EXPECT_EQ(sliced[i].medianFaults, whole.points[i].medianFaults);
        EXPECT_EQ(sliced[i].perDomainFaults,
                  whole.points[i].perDomainFaults);
    }
}

// ---------------------------------------------------------------------
// Heterogeneous fleet through Campaign/FleetEngine
// ---------------------------------------------------------------------

class MixedFleetDeterminism
    : public ::testing::TestWithParam<std::size_t> // workers
{
};

TEST_P(MixedFleetDeterminism, MixedFleetIsBitIdenticalAcrossWorkers)
{
    const auto campaign =
        harness::Campaign::onDevices({"ZC702", "HBM2-A", "MORS-SRAM-A"})
            .withPattern(harness::PatternSpec::allOnes())
            .sweep(5)
            .ledgerUnder("");

    const auto serial = campaign.run();
    ASSERT_TRUE(serial.ok()) << serial.error().message;

    ThreadPool pool(GetParam());
    const auto parallel = campaign.run(pool);
    ASSERT_TRUE(parallel.ok()) << parallel.error().message;

    const harness::FleetResult &a = serial.value();
    const harness::FleetResult &b = parallel.value();
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        const harness::SweepResult &p = a.jobs[i].sweep;
        const harness::SweepResult &q = b.jobs[i].sweep;
        EXPECT_EQ(p.platform, q.platform);
        ASSERT_EQ(p.points.size(), q.points.size());
        for (std::size_t k = 0; k < p.points.size(); ++k) {
            EXPECT_EQ(p.points[k].vccBramMv, q.points[k].vccBramMv);
            EXPECT_EQ(p.points[k].runCounts, q.points[k].runCounts);
            EXPECT_EQ(p.points[k].medianFaults,
                      q.points[k].medianFaults);
            EXPECT_EQ(p.points[k].perBramFaults,
                      q.points[k].perBramFaults);
        }
    }
    ASSERT_EQ(a.dies.size(), 3u);
    ASSERT_EQ(b.dies.size(), 3u);
    std::set<std::string> technologies;
    for (std::size_t i = 0; i < a.dies.size(); ++i) {
        EXPECT_EQ(a.dies[i].technology, b.dies[i].technology);
        EXPECT_EQ(a.dies[i].faultsPerMbitAtVcrash,
                  b.dies[i].faultsPerMbitAtVcrash);
        technologies.insert(a.dies[i].technology);
    }
    EXPECT_EQ(technologies,
              (std::set<std::string>{"bram", "hbm", "sram"}));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, MixedFleetDeterminism,
                         ::testing::Values(0u, 1u, 8u));

TEST(MixedFleetTest, NoiseInjectionOnNonBramJobsIsInvalid)
{
    const pmbus::NoiseConfig noise = pmbus::NoiseConfig::harsh(1, 0.05);
    const auto campaign = harness::Campaign::onDevices({"HBM2-A"})
                              .withNoise(noise)
                              .sweep(3)
                              .ledgerUnder("");
    const auto result = campaign.run();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.code(), Errc::invalidRequest);
    EXPECT_NE(result.error().message.find("BRAM-only"), std::string::npos);
}

TEST(MixedFleetTest, RegionDiscoveryOnNonBramJobsIsInvalid)
{
    const auto result = harness::Campaign::onDevices({"MORS-SRAM-A"})
                            .discoverRegions()
                            .sweep(3)
                            .ledgerUnder("")
                            .run();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.code(), Errc::invalidRequest);
}

TEST(MixedFleetTest, SlicedBackendAttemptMatchesOneSweep)
{
    harness::FleetPlan plan;
    plan.runsPerLevel = 3;
    const harness::FleetJob job{"HBM2-A", harness::PatternSpec::fixed(0x5A5A),
                                60.0, std::nullopt};
    const auto whole = harness::runJobAttempt(plan, job, 1, 17);
    ASSERT_TRUE(whole.ok());
    int slices = 0;
    const auto sliced = harness::runJobAttempt(
        plan, job, 1, 17, "", 2, [&]() -> Expected<void> {
            ++slices;
            return {};
        });
    ASSERT_TRUE(sliced.ok());
    EXPECT_GT(slices, 1);
    const harness::SweepResult &p = sliced.value().sweep;
    const harness::SweepResult &q = whole.value().sweep;
    EXPECT_FALSE(p.truncated);
    ASSERT_EQ(p.points.size(), q.points.size());
    for (std::size_t k = 0; k < p.points.size(); ++k) {
        EXPECT_EQ(p.points[k].vccBramMv, q.points[k].vccBramMv);
        EXPECT_EQ(p.points[k].runCounts, q.points[k].runCounts);
        EXPECT_EQ(p.points[k].perBramFaults, q.points[k].perBramFaults);
    }

    // A failing slice check ends the attempt with its error.
    const auto stopped = harness::runJobAttempt(
        plan, job, 1, 17, "", 2, [&]() -> Expected<void> {
            return makeError(Errc::serverStopped, "stop");
        });
    ASSERT_FALSE(stopped.ok());
    EXPECT_EQ(stopped.code(), Errc::serverStopped);
}

// ---------------------------------------------------------------------
// Cache keys and manifest tags
// ---------------------------------------------------------------------

TEST(FvmCacheKeys, BramKeysKeepTheLegacyUntaggedFormat)
{
    const fpga::PlatformSpec &spec = fpga::findPlatform("VC707");
    const auto pattern = harness::PatternSpec::allOnes();
    EXPECT_EQ(harness::FvmCache::keyForDevice(traitsOfName("VC707"),
                                              pattern, 100),
              harness::FvmCache::keyFor(spec, pattern, 100));
}

TEST(FvmCacheKeys, NonBramKeysAreTechnologyTagged)
{
    const auto pattern = harness::PatternSpec::allOnes();
    const std::string hbm_key = harness::FvmCache::keyForDevice(
        traitsOfName("HBM2-A"), pattern, 50);
    const std::string sram_key = harness::FvmCache::keyForDevice(
        traitsOfName("MORS-SRAM-A"), pattern, 50);
    EXPECT_EQ(hbm_key.rfind("hbm-", 0), 0u) << hbm_key;
    EXPECT_EQ(sram_key.rfind("sram-", 0), 0u) << sram_key;
    EXPECT_NE(hbm_key, sram_key);
}

TEST(LedgerBackends, ManifestRoundTripsPerJobBackendTags)
{
    harness::RunManifest manifest;
    manifest.tool = "membackend_test";
    manifest.runId = "test-run";
    manifest.jobLabels = {"ZC702-ones-50C", "HBM2-A-ones-50C",
                          "MORS-SRAM-A-ones-50C"};
    manifest.noiseSeeds = {0, 0, 0};
    manifest.backends = {"bram", "hbm", "sram"};

    const auto parsed = harness::RunManifest::fromJson(manifest.toJson());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value().backends, manifest.backends);
}

TEST(LedgerBackends, ManifestsWithoutBackendFieldReadAsBram)
{
    harness::RunManifest manifest;
    manifest.tool = "membackend_test";
    manifest.runId = "legacy-run";
    manifest.jobLabels = {"VC707-ones-50C"};
    manifest.noiseSeeds = {7};
    std::string text = manifest.toJson();
    const auto pos = text.find(", \"backend\": \"bram\"");
    ASSERT_NE(pos, std::string::npos);
    text.erase(pos, std::string(", \"backend\": \"bram\"").size());

    const auto parsed = harness::RunManifest::fromJson(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    ASSERT_EQ(parsed.value().backends.size(), 1u);
    EXPECT_EQ(parsed.value().backends[0], "bram");
}

TEST(MixedFleetTest, FleetRecordsBackendTagsInTheManifest)
{
    const auto dir = std::filesystem::temp_directory_path() /
        "uvolt_membackend_ledger";
    std::filesystem::remove_all(dir);
    const auto result =
        harness::Campaign::onDevices({"ZC702", "HBM2-A"})
            .withPattern(harness::PatternSpec::allOnes())
            .sweep(3)
            .ledgerUnder(dir.string())
            .run();
    ASSERT_TRUE(result.ok()) << result.error().message;

    const auto manifest = harness::RunManifest::load(
        harness::Ledger(dir.string()).latestPath());
    ASSERT_TRUE(manifest.ok()) << manifest.error().message;
    ASSERT_EQ(manifest.value().backends.size(), 2u);
    EXPECT_EQ(manifest.value().backends[0], "bram");
    EXPECT_EQ(manifest.value().backends[1], "hbm");
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace uvolt::mem
