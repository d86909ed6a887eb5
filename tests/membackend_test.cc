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
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "json_value.hh"
#include "fpga/device.hh"
#include "fpga/fault_domain.hh"
#include "fpga/platform.hh"
#include "harness/campaign.hh"
#include "harness/fleet.hh"
#include "harness/run_record.hh"
#include "mem/bram_backend.hh"
#include "mem/catalog.hh"
#include "mem/hbm_backend.hh"
#include "mem/memory_device.hh"
#include "mem/sram_backend.hh"
#include "mem/sweep.hh"
#include "pmbus/board.hh"
#include "util/rng.hh"
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
    for (const HbmSpec &spec : hbmCatalog())
        EXPECT_TRUE(knownDevice(spec.name)) << spec.name;
    for (const SramSpec &spec : sramCatalog())
        EXPECT_TRUE(knownDevice(spec.name)) << spec.name;
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
// after divergent writes. The count index is keyed on the content
// epoch; if a clone shared its source's epoch counter, writing 0x0000
// into the clone would not invalidate an index built on the source.
// Both sides count more than once per epoch, so the indexes are built.
TEST_P(BackendConformance, CloneDivergenceNeverSharesMemoizedCounts)
{
    auto source = this->device();
    source->fill(0xFFFF);
    const double v = mv(source->traits().vcrashMv);
    const double v_mid =
        mv((source->traits().vcrashMv + source->traits().vminMv) / 2);
    const std::uint64_t all_ones = source->countFaults(v);
    const std::uint64_t all_ones_mid = source->countFaults(v_mid);
    EXPECT_EQ(source->countFaults(v), all_ones);

    auto clone = source->clone();
    ASSERT_NE(clone, nullptr);
    // The clone aliases the die's immutable personality (the very same
    // ladders) but owns its content planes.
    for (std::uint32_t d : {0u, source->domainCount() - 1}) {
        EXPECT_EQ(&clone->domainLadders(d), &source->domainLadders(d));
        EXPECT_NE(clone->domainWords(d).data(),
                  source->domainWords(d).data());
    }
    EXPECT_EQ(clone->countFaults(v), all_ones);
    EXPECT_EQ(clone->countFaults(v_mid), all_ones_mid);

    // Diverge the clone: all-zero content kills every 1->0 fault.
    clone->fill(0x0000);
    const std::uint64_t all_zeros = clone->countFaults(v);
    EXPECT_NE(all_zeros, all_ones);
    const std::uint64_t all_zeros_mid = clone->countFaults(v_mid);
    EXPECT_EQ(clone->countFaults(v), all_zeros);

    // The source is untouched and must still see the all-ones totals —
    // both from its (still valid) index and from a fresh recount.
    EXPECT_EQ(source->countFaults(v), all_ones);
    EXPECT_EQ(source->countFaults(v_mid), all_ones_mid);
    source->fill(0xFFFF); // bump epoch, force recount
    EXPECT_EQ(source->countFaults(v), all_ones);
    EXPECT_EQ(source->countFaults(v_mid), all_ones_mid);

    // And diverging the source must not leak back into the clone.
    source->fill(0x0000);
    EXPECT_EQ(clone->countFaults(v), all_zeros);
    EXPECT_EQ(clone->countFaults(v_mid), all_zeros_mid);
    EXPECT_EQ(source->countFaults(v), clone->countFaults(v));
    EXPECT_EQ(source->countFaults(v_mid), clone->countFaults(v_mid));
}

/** Device-wide count streamed domain by domain (no index). */
std::uint64_t
streamedCount(const MemoryDevice &device, double v)
{
    std::uint64_t total = 0;
    for (std::uint32_t d = 0; d < device.domainCount(); ++d)
        total += static_cast<std::uint64_t>(device.countDomainFaults(d, v));
    return total;
}

/** Device-wide count from the scalar reference walkers. */
std::uint64_t
referenceCount(const MemoryDevice &device, double v)
{
    std::uint64_t total = 0;
    for (std::uint32_t d = 0; d < device.domainCount(); ++d)
        total += static_cast<std::uint64_t>(
            device.countDomainFaultsReference(d, v));
    return total;
}

// The count index against its spec: at every 1 mV of the envelope, and
// at every element's exact threshold (equality is healthy) and one ulp
// below it, the indexed count equals the streamed one; the reference
// walkers agree at every 1 mV and at a seeded sample of thresholds.
TEST_P(BackendConformance, CountIndexEqualsStreamingAndTheReferenceWalker)
{
    auto device = this->device();
    const DeviceTraits &traits = device->traits();
    for (const harness::PatternSpec &pattern :
         {harness::PatternSpec::allOnes(), harness::PatternSpec::fixed(0xA5A5),
          harness::PatternSpec::random(0.5, 17)}) {
        harness::fillMemPattern(*device, pattern);
        device->countFaults(mv(traits.vminMv)); // builds the index

        for (int level = traits.vcrashMv - 5; level <= traits.vminMv + 2;
             ++level) {
            const double v = mv(level);
            const std::uint64_t streamed = streamedCount(*device, v);
            EXPECT_EQ(device->countFaults(v), streamed)
                << pattern.label() << " at " << level << " mV";
            EXPECT_EQ(referenceCount(*device, v), streamed)
                << pattern.label() << " at " << level << " mV";
        }

        // Every element's threshold, exactly (healthy) and one ulp below
        // (failing), probed in descending order. The expected total is a
        // running sum of per-domain streamed counts: a domain's count
        // can only change where the probe passes one of its thresholds.
        std::vector<std::pair<float, std::uint32_t>> owned;
        for (std::uint32_t d = 0; d < device->domainCount(); ++d) {
            const vmodel::DomainLadders &ladders = device->domainLadders(d);
            for (const auto *ladder : {&ladders.oneToZero, &ladders.zeroToOne})
                for (float t : ladder->thresholds)
                    owned.emplace_back(t, d);
        }
        ASSERT_FALSE(owned.empty());
        std::sort(owned.begin(), owned.end(), std::greater<>());
        std::vector<int> per_domain(device->domainCount(), 0);
        double above = mv(traits.vminMv);
        std::uint64_t expected = streamedCount(*device, above);
        ASSERT_EQ(expected, 0u);
        std::size_t next = 0;
        for (std::size_t i = 0; i < owned.size(); ++i) {
            const float t = owned[i].first;
            if (i > 0 && t == owned[i - 1].first)
                continue;
            for (double v : {static_cast<double>(t),
                             static_cast<double>(std::nextafter(t, 0.0f))}) {
                for (std::size_t k = next; k < owned.size() &&
                     static_cast<double>(owned[k].first) >= v;
                     ++k) {
                    const std::uint32_t d = owned[k].second;
                    const int now = device->countDomainFaults(d, v);
                    expected = expected - per_domain[d] + now;
                    per_domain[d] = now;
                }
                ASSERT_EQ(device->countFaults(v), expected)
                    << pattern.label() << " at " << v << " V";
                above = v;
            }
            while (next < owned.size() &&
                   static_cast<double>(owned[next].first) > above)
                ++next;
        }
        EXPECT_EQ(expected, streamedCount(*device, above));

        Rng pick(combineSeeds(hashSeed(traits.name), pattern.seed));
        for (int k = 0; k < 16; ++k) {
            const float t =
                owned[pick.uniformInt(0, owned.size() - 1)].first;
            const auto v = static_cast<double>(t);
            EXPECT_EQ(device->countFaults(v), referenceCount(*device, v))
                << pattern.label() << " at threshold " << t;
        }
    }
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
        for (const HbmPersonality::WeakRow &row :
             backend.personality().rows[bank]) {
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
        for (const SramPersonality::WeakCell &cell :
             backend.personality().cells[array]) {
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
// Shared personalities: synthesized once per die, aliased by every device
// ---------------------------------------------------------------------

bool
sameElement(const HbmPersonality::WeakRow &a,
            const HbmPersonality::WeakRow &b)
{
    return a.row == b.row && a.oneToZero == b.oneToZero &&
        a.thresholdV == b.thresholdV;
}

bool
sameElement(const SramPersonality::WeakCell &a,
            const SramPersonality::WeakCell &b)
{
    return a.row == b.row && a.col == b.col && a.oneToZero == b.oneToZero &&
        a.thresholdV == b.thresholdV;
}

bool
sameLadder(const vmodel::MaskLadder &a, const vmodel::MaskLadder &b)
{
    return a.thresholds == b.thresholds && a.words == b.words &&
        a.masks == b.masks;
}

/**
 * The personality behind @a device (its @a cached elements and its
 * ladders) against a @a fresh synthesis: element by element, ladder by
 * ladder, and device-wide counts every 5 mV of the envelope under three
 * patterns, the fresh ladders counted against the device's own planes.
 */
template <typename Personality, typename Element>
void
expectSamePersonality(MemoryDevice &device,
                      const std::vector<std::vector<Element>> &cached,
                      const Personality &fresh,
                      const std::vector<std::vector<Element>> &fresh_elements)
{
    const std::string &name = device.name();
    ASSERT_EQ(cached.size(), device.domainCount()) << name;
    ASSERT_EQ(fresh_elements.size(), cached.size()) << name;
    ASSERT_EQ(fresh.ladders.size(), cached.size()) << name;
    for (std::uint32_t d = 0; d < device.domainCount(); ++d) {
        ASSERT_EQ(cached[d].size(), fresh_elements[d].size())
            << name << " domain " << d;
        for (std::size_t i = 0; i < cached[d].size(); ++i)
            EXPECT_TRUE(sameElement(cached[d][i], fresh_elements[d][i]))
                << name << " domain " << d << " element " << i;
        const vmodel::DomainLadders &ladders = device.domainLadders(d);
        EXPECT_TRUE(sameLadder(ladders.oneToZero,
                               fresh.ladders[d].oneToZero))
            << name << " domain " << d;
        EXPECT_TRUE(sameLadder(ladders.zeroToOne,
                               fresh.ladders[d].zeroToOne))
            << name << " domain " << d;
    }
    const DeviceTraits &traits = device.traits();
    for (const harness::PatternSpec &pattern :
         {harness::PatternSpec::allOnes(), harness::PatternSpec::fixed(0x0000),
          harness::PatternSpec::random(0.5, 23)}) {
        harness::fillMemPattern(device, pattern);
        for (int level = traits.vminMv; level >= traits.vcrashMv;
             level -= 5) {
            std::uint64_t expected = 0;
            for (std::uint32_t d = 0; d < device.domainCount(); ++d)
                expected += fresh.ladders[d].countFaults(
                    device.domainWords(d), mv(level));
            EXPECT_EQ(device.countFaults(mv(level)), expected)
                << name << " " << pattern.label() << " at " << level
                << " mV";
        }
    }
}

TEST(SharedPersonality, CachedDeviceEqualsAFreshSynthesis)
{
    for (const char *name : {"HBM2-A", "HBM2-B"}) {
        const auto device = makeDevice(name);
        const auto &hbm = dynamic_cast<const HbmBackend &>(*device);
        const HbmPersonality fresh(*findHbm(name));
        expectSamePersonality(*device, hbm.personality().rows, fresh,
                              fresh.rows);
    }
    const auto device = makeDevice("MORS-SRAM-A");
    const auto &sram = dynamic_cast<const SramMorsBackend &>(*device);
    const SramPersonality fresh(*findSram("MORS-SRAM-A"));
    expectSamePersonality(*device, sram.personality().cells, fresh,
                          fresh.cells);
}

// A key that leaves out a field the synthesis reads would hand a spec
// the personality of another: change each such field alone (doubles by
// one ulp) and each copy must get its own, for all three technologies.
// Fields only the other laws read (power, temperature, jitter, and the
// HBM/SRAM names) must not split the personality.
TEST(SharedPersonality, EverySynthesisFieldKeysItsOwnPersonality)
{
    const HbmSpec hbm = *findHbm("HBM2-A");
    const auto hbm_shared = sharedHbmPersonality(hbm);
    std::vector<std::pair<std::string, HbmSpec>> hbm_copies;
    const auto vary_hbm = [&](const std::string &field, auto change) {
        HbmSpec copy = hbm;
        change(copy);
        hbm_copies.emplace_back(field, copy);
    };
    vary_hbm("stackId", [](HbmSpec &s) { s.stackId += "-X"; });
    vary_hbm("pseudoChannels", [](HbmSpec &s) { s.pseudoChannels = 4; });
    vary_hbm("banksPerChannel", [](HbmSpec &s) { s.banksPerChannel = 4; });
    vary_hbm("rowsPerBank", [](HbmSpec &s) { s.rowsPerBank = 1024; });
    vary_hbm("vminMv", [](HbmSpec &s) { s.vminMv = 970; });
    vary_hbm("vcrashMv", [](HbmSpec &s) { s.vcrashMv = 820; });
    vary_hbm("weakRowsPerBankAtVcrash", [](HbmSpec &s) {
        s.weakRowsPerBankAtVcrash =
            std::nextafter(s.weakRowsPerBankAtVcrash, 100.0);
    });
    vary_hbm("oneToZeroShare", [](HbmSpec &s) {
        s.oneToZeroShare = std::nextafter(s.oneToZeroShare, 1.0);
    });
    std::set<const HbmPersonality *> hbm_seen{hbm_shared.get()};
    for (const auto &[field, copy] : hbm_copies)
        EXPECT_TRUE(hbm_seen.insert(sharedHbmPersonality(copy).get()).second)
            << "HBM field " << field;
    HbmSpec hbm_laws = hbm;
    hbm_laws.name = "HBM2-A-laws";
    hbm_laws.vnomMv += 50;
    hbm_laws.runJitterMv *= 2.0;
    hbm_laws.retentionMvPerC *= 2.0;
    hbm_laws.railPowerNomW *= 2.0;
    hbm_laws.dynamicFraction /= 2.0;
    hbm_laws.leakageSlope *= 2.0;
    EXPECT_EQ(sharedHbmPersonality(hbm_laws).get(), hbm_shared.get());

    const SramSpec sram = *findSram("MORS-SRAM-A");
    const auto sram_shared = sharedSramPersonality(sram);
    std::vector<std::pair<std::string, SramSpec>> sram_copies;
    const auto vary_sram = [&](const std::string &field, auto change) {
        SramSpec copy = sram;
        change(copy);
        sram_copies.emplace_back(field, copy);
    };
    const auto ulp_up = [](double x) { return std::nextafter(x, 2.0 * x); };
    vary_sram("chipId", [](SramSpec &s) { s.chipId += "-X"; });
    vary_sram("arrayCount", [](SramSpec &s) { s.arrayCount = 64; });
    vary_sram("rowsPerArray", [](SramSpec &s) { s.rowsPerArray = 256; });
    vary_sram("vminMv", [](SramSpec &s) { s.vminMv = 850; });
    vary_sram("vcrashMv", [](SramSpec &s) { s.vcrashMv = 710; });
    vary_sram("weakCellsPerArrayAtVcrash", [&](SramSpec &s) {
        s.weakCellsPerArrayAtVcrash = ulp_up(s.weakCellsPerArrayAtVcrash);
    });
    vary_sram("weakRowShare",
              [&](SramSpec &s) { s.weakRowShare = ulp_up(s.weakRowShare); });
    vary_sram("weakColShare",
              [&](SramSpec &s) { s.weakColShare = ulp_up(s.weakColShare); });
    vary_sram("weakRowsPerArray", [](SramSpec &s) { s.weakRowsPerArray = 5; });
    vary_sram("weakColsPerArray", [](SramSpec &s) { s.weakColsPerArray = 3; });
    vary_sram("oneToZeroShare", [&](SramSpec &s) {
        s.oneToZeroShare = ulp_up(s.oneToZeroShare);
    });
    std::set<const SramPersonality *> sram_seen{sram_shared.get()};
    for (const auto &[field, copy] : sram_copies)
        EXPECT_TRUE(
            sram_seen.insert(sharedSramPersonality(copy).get()).second)
            << "SRAM field " << field;
    SramSpec sram_laws = sram;
    sram_laws.name = "MORS-SRAM-A-laws";
    sram_laws.vnomMv += 50;
    sram_laws.runJitterMv *= 2.0;
    sram_laws.itdMvPerC *= 2.0;
    sram_laws.railPowerNomW *= 2.0;
    sram_laws.dynamicFraction /= 2.0;
    sram_laws.leakageSlope *= 2.0;
    EXPECT_EQ(sharedSramPersonality(sram_laws).get(), sram_shared.get());

    // BRAM: the chip model reads the serial, the geometry, the fault
    // calibration and the variation params; power, VCCINT and run-jitter
    // calibration belong to the board's other laws.
    const fpga::PlatformSpec bram = fpga::findPlatform("ZC702");
    const auto bram_shared = pmbus::sharedChipModel(bram);
    std::vector<std::pair<std::string, fpga::PlatformSpec>> bram_copies;
    const auto vary_bram = [&](const std::string &field, auto change) {
        fpga::PlatformSpec copy = bram;
        change(copy);
        bram_copies.emplace_back(field, copy);
    };
    vary_bram("serialNumber",
              [](fpga::PlatformSpec &s) { s.serialNumber += "-X"; });
    vary_bram("bramCount", [](fpga::PlatformSpec &s) { s.bramCount -= 20; });
    vary_bram("columnHeight",
              [](fpga::PlatformSpec &s) { s.columnHeight += 10; });
    vary_bram("bramVminMv",
              [](fpga::PlatformSpec &s) { s.calib.bramVminMv -= 10; });
    vary_bram("bramVcrashMv",
              [](fpga::PlatformSpec &s) { s.calib.bramVcrashMv += 10; });
    vary_bram("faultsPerMbitAtVcrash", [&](fpga::PlatformSpec &s) {
        s.calib.faultsPerMbitAtVcrash = ulp_up(s.calib.faultsPerMbitAtVcrash);
    });
    vary_bram("neverFaultyFraction", [&](fpga::PlatformSpec &s) {
        s.calib.neverFaultyFraction = ulp_up(s.calib.neverFaultyFraction);
    });
    vary_bram("maxBramFaultRate", [&](fpga::PlatformSpec &s) {
        s.calib.maxBramFaultRate = ulp_up(s.calib.maxBramFaultRate);
    });
    vary_bram("spatialCorrLength", [&](fpga::PlatformSpec &s) {
        s.calib.spatialCorrLength = ulp_up(s.calib.spatialCorrLength);
    });
    vary_bram("itdMvPerC", [&](fpga::PlatformSpec &s) {
        s.calib.itdMvPerC = ulp_up(s.calib.itdMvPerC);
    });
    std::set<const vmodel::ChipFaultModel *> bram_seen{bram_shared.get()};
    for (const auto &[field, copy] : bram_copies)
        EXPECT_TRUE(
            bram_seen.insert(pmbus::sharedChipModel(copy).get()).second)
            << "BRAM field " << field;
    vmodel::VariationParams params;
    params.spatialWeight = ulp_up(params.spatialWeight);
    EXPECT_TRUE(
        bram_seen.insert(pmbus::sharedChipModel(bram, params).get()).second)
        << "BRAM variation params";
    fpga::PlatformSpec bram_laws = bram;
    bram_laws.calib.runJitterMv *= 2.0;
    bram_laws.calib.intVminMv += 10;
    bram_laws.calib.bramPowerNomW *= 2.0;
    bram_laws.calib.leakageSlope *= 2.0;
    EXPECT_EQ(pmbus::sharedChipModel(bram_laws).get(), bram_shared.get());
}

// Four threads build the same HBM stack and SRAM chip at once, at the
// first use of both dies in the process (serials no other test uses):
// every device aliases one personality per die and counts the same.
// scripts/ci.sh runs this under ThreadSanitizer.
TEST(SharedPersonality, ConcurrentFirstUseBuildsEachPersonalityOnce)
{
    HbmSpec hbm = *findHbm("HBM2-A");
    hbm.stackId = "H2A-CONCURRENT-FIRST-USE";
    SramSpec sram = *findSram("MORS-SRAM-A");
    sram.chipId = "MS-CONCURRENT-FIRST-USE";

    constexpr int threads = 4;
    std::vector<std::unique_ptr<HbmBackend>> stacks(threads);
    std::vector<std::unique_ptr<SramMorsBackend>> chips(threads);
    std::latch start(threads);
    {
        std::vector<std::jthread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                start.arrive_and_wait();
                // Half the threads ask for the chip first, so the two
                // dies' first uses overlap in both orders.
                if (t % 2) {
                    chips[t] = std::make_unique<SramMorsBackend>(sram);
                    stacks[t] = std::make_unique<HbmBackend>(hbm);
                } else {
                    stacks[t] = std::make_unique<HbmBackend>(hbm);
                    chips[t] = std::make_unique<SramMorsBackend>(sram);
                }
                stacks[t]->fill(0xFFFF);
                chips[t]->fill(0xFFFF);
            });
        }
    }

    const HbmPersonality fresh_hbm(hbm);
    const SramPersonality fresh_sram(sram);
    for (int t = 0; t < threads; ++t) {
        EXPECT_EQ(&stacks[t]->personality(), &stacks[0]->personality());
        EXPECT_EQ(&chips[t]->personality(), &chips[0]->personality());
    }
    EXPECT_EQ(&stacks[0]->personality(), sharedHbmPersonality(hbm).get());
    EXPECT_EQ(&chips[0]->personality(), sharedSramPersonality(sram).get());
    for (int t = 1; t < threads; ++t) {
        for (int level = hbm.vminMv; level >= hbm.vcrashMv; level -= 10)
            EXPECT_EQ(stacks[t]->countFaults(mv(level)),
                      stacks[0]->countFaults(mv(level)));
        for (int level = sram.vminMv; level >= sram.vcrashMv; level -= 10)
            EXPECT_EQ(chips[t]->countFaults(mv(level)),
                      chips[0]->countFaults(mv(level)));
    }
    expectSamePersonality(*stacks[0], stacks[0]->personality().rows,
                          fresh_hbm, fresh_hbm.rows);
    expectSamePersonality(*chips[0], chips[0]->personality().cells,
                          fresh_sram, fresh_sram.cells);
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
    harness::RunRecord record;
    record.tool = "membackend_test";
    record.runId = "test-run";
    harness::RunRecord::Fleet &fleet = record.fleet.emplace();
    fleet.jobs = {{"ZC702-ones-50C", 0, "bram"},
                  {"HBM2-A-ones-50C", 0, "hbm"},
                  {"MORS-SRAM-A-ones-50C", 0, "sram"}};

    // Each job carries its own tag through the record, in plan order.
    const auto parsed = json::Value::parse(record.toJsonLine());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const auto &jobs = parsed.value().at("plan").at("jobs").items();
    ASSERT_EQ(jobs.size(), fleet.jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].stringOr("label", ""), fleet.jobs[i].label);
        EXPECT_EQ(jobs[i].stringOr("backend", ""), fleet.jobs[i].backend);
    }
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

    const auto record =
        json::Value::parseFile((dir / "runs.jsonl").string());
    ASSERT_TRUE(record.ok()) << record.error().message;
    const auto &jobs = record.value().at("plan").at("jobs").items();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].stringOr("backend", ""), "bram");
    EXPECT_EQ(jobs[1].stringOr("backend", ""), "hbm");
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace uvolt::mem
