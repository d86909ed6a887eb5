/**
 * @file
 * Example: full characterization campaign for one board — the paper's
 * Section II methodology in one Campaign call.
 *
 *  - region discovery on VCCBRAM and VCCINT (Fig 1),
 *  - Listing-1 critical-region sweep with 100 runs per level (Fig 3),
 *  - stability statistics at Vcrash (Table II),
 *  - vulnerability clustering (Fig 5),
 *  - the chip's Fault Variation Map as ASCII art (Fig 6).
 *
 * Usage:
 *   characterize_board [--platform VC707] [--runs 100]
 *                      [--pattern ffff|aaaa|5555|0000|random]
 *                      [--temp 50] [--fvm] [--csv sweep.csv]
 *                      [--noise 0.02] [--seed 1]
 *
 * --noise puts the instrumentation in a harsh environment (corrupted
 * frames, PMBus NACKs, setpoint jitter, spurious crashes near Vcrash,
 * probability per channel as given, seeded by --seed). The resilient
 * campaign engine masks all of it: the printed characterization is bit
 * for bit the quiet one, plus a recovery-cost summary.
 */

#include <cstdio>
#include <iostream>

#include "harness/campaign.hh"
#include "harness/clusterer.hh"
#include "harness/fault_analyzer.hh"
#include "harness/fvm.hh"
#include "harness/structure.hh"
#include "pmbus/board.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace uvolt;

namespace
{

harness::PatternSpec
parsePattern(const std::string &name)
{
    if (name == "ffff")
        return harness::PatternSpec::allOnes();
    if (name == "aaaa")
        return harness::PatternSpec::fixed(0xAAAA);
    if (name == "5555")
        return harness::PatternSpec::fixed(0x5555);
    if (name == "0000")
        return harness::PatternSpec::fixed(0x0000);
    if (name == "random")
        return harness::PatternSpec::random(0.5, 99);
    uvolt::fatal("unknown pattern '{}'", name);
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Full undervolting characterization of one FPGA board "
                  "(paper Section II)");
    cli.addString("platform", "VC707", "board to characterize");
    cli.addInt("runs", 100, "repetitions per voltage level");
    cli.addString("pattern", "ffff", "initial BRAM content");
    cli.addDouble("temp", 50.0, "on-board ambient, degC");
    cli.addBool("fvm", "render the Fault Variation Map");
    cli.addBool("bram-map", "render the hottest BRAM's bitcell map");
    cli.addString("csv", "", "optional CSV output for the sweep");
    cli.addDouble("noise", 0.0,
                  "harsh-environment fault probability (0..1)");
    cli.addInt("seed", 1, "seed for the injected-fault stream");
    if (!cli.tryParse(argc, argv).orFatal())
        return 0;

    const auto &spec = fpga::findPlatform(cli.getString("platform"));
    const double noise = cli.getDouble("noise");

    // --- the whole Section II methodology as one Campaign ----------------
    harness::Campaign campaign =
        harness::Campaign::onPlatform(spec.name)
            .withPattern(parsePattern(cli.getString("pattern")))
            .atTemperature(cli.getDouble("temp"))
            .sweep(static_cast<int>(cli.getInt("runs")))
            .discoverRegions();
    if (noise != 0.0) {
        campaign.withNoise(pmbus::NoiseConfig::harsh(
            static_cast<std::uint64_t>(cli.getInt("seed")), noise));
        std::printf("harsh environment: %.1f%% injected fault "
                    "probability on every channel (seed %ld)\n\n",
                    noise * 100.0, cli.getInt("seed"));
    }
    const harness::FleetResult result = campaign.run().orFatal();
    const harness::FleetJobOutcome &outcome = result.jobs.front();

    // --- Fig 1: voltage regions on both rails ----------------------------
    std::printf("== %s: voltage regions (S/N %s, %.0f degC)\n",
                spec.name.c_str(), spec.serialNumber.c_str(),
                outcome.job.ambientC);
    for (const auto *regions : {&*outcome.bramRegions,
                                &*outcome.intRegions}) {
        std::printf("  %-8s nominal %d mV | SAFE >= %d mV (guardband "
                    "%.0f%%) | CRITICAL >= %d mV | CRASH below\n",
                    railName(regions->rail), regions->vnomMv,
                    regions->vminMv, regions->guardband() * 100.0,
                    regions->vcrashMv);
    }

    // --- Listing 1: the critical-region sweep ----------------------------
    const harness::SweepResult &sweep = result.onlySweep();
    std::printf("\n== Listing-1 sweep, pattern %s, %d runs/level\n",
                sweep.pattern.label().c_str(), sweep.runsPerLevel);

    TextTable table({"VCCBRAM", "median faults", "faults/Mbit",
                     "min", "max", "stddev", "1->0 share", "power W"});
    for (const auto &point : sweep.points) {
        table.addRow({fmtVolts(point.vccBramMv / 1000.0),
                      fmtDouble(point.medianFaults, 0),
                      fmtDouble(point.faultsPerMbit, 1),
                      fmtDouble(point.runStats.minimum(), 0),
                      fmtDouble(point.runStats.maximum(), 0),
                      fmtDouble(point.runStats.stddev(), 1),
                      fmtPercent(point.oneToZeroFraction, 2),
                      fmtDouble(point.bramPowerW, 3)});
    }
    table.print(std::cout);
    if (const std::string path = cli.getString("csv"); !path.empty())
        writeCsv(table, path);

    if (noise > 0.0) {
        const auto &cost = result.resilience;
        std::printf("\n== surviving the environment: %llu crash "
                    "recoveries, %llu runs retried, %llu link "
                    "retransmits, %llu PMBus retries\n",
                    static_cast<unsigned long long>(cost.crashRecoveries),
                    static_cast<unsigned long long>(cost.runsRetried),
                    static_cast<unsigned long long>(cost.linkRetransmits),
                    static_cast<unsigned long long>(cost.pmbusRetries));
    }

    // --- Fig 5: clustering (die report carries the merged FVM) ------------
    const harness::Fvm &fvm = *result.dies.front().mergedFvm;
    const fpga::Floorplan floorplan =
        fpga::Floorplan::columnGrid(spec.bramCount, spec.columnHeight);
    std::printf("\n== per-BRAM distribution at Vcrash: %.1f%% fault-free, "
                "max %.2f%%, mean %.3f%%\n",
                fvm.faultFreeFraction() * 100.0, fvm.maxRate() * 100.0,
                fvm.meanRate() * 100.0);
    const harness::ClusterReport clusters = harness::clusterBrams(fvm);
    for (auto cls : {harness::VulnClass::Low, harness::VulnClass::Mid,
                     harness::VulnClass::High}) {
        const auto index = static_cast<std::size_t>(cls);
        std::printf("  %-16s %5zu BRAMs (%5.1f%%), avg %.1f faults "
                    "(%.3f%%)\n",
                    harness::vulnClassName(cls), clusters.sizes[index],
                    clusters.shareOf(cls) * 100.0,
                    clusters.meanCounts[index],
                    clusters.meanRates[index] * 100.0);
    }

    // --- within-BRAM structure of the hottest BRAM ------------------------
    // The advanced path: this needs raw readback frames, so it talks to a
    // Board directly instead of going through the Campaign facade.
    if (cli.getBool("bram-map")) {
        pmbus::Board board(spec);
        board.setAmbientC(cli.getDouble("temp"));
        harness::fillPattern(board,
                             parsePattern(cli.getString("pattern")));
        board.setVccBramMv(spec.calib.bramVcrashMv);
        board.startReferenceRun();
        std::vector<harness::FaultObservation> faults;
        harness::FaultSummary summary;
        std::vector<std::uint64_t> plane(fpga::bramWords);
        for (std::uint32_t b = 0; b < board.device().bramCount(); ++b) {
            board.tryReadBramPacked(b, plane).orFatal();
            harness::diffBram(board.device().bram(b), plane, b, faults,
                              summary);
        }
        board.softReset();
        const harness::StructureReport structure =
            harness::analyzeStructure(faults);
        const harness::BramStructure *hottest = nullptr;
        for (const auto &entry : structure.perBram) {
            if (!hottest || entry.faults > hottest->faults)
                hottest = &entry;
        }
        if (hottest) {
            std::printf("\n== hottest BRAM %u (%d faults, top-2 column "
                        "share %.0f%%); bit 15 left, rows folded x32:\n%s",
                        hottest->bram, hottest->faults,
                        hottest->topTwoColumnShare() * 100.0,
                        harness::renderBramMap(*hottest, faults).c_str());
        }
    }

    // --- Fig 6: the FVM -----------------------------------------------------
    if (cli.getBool("fvm")) {
        std::printf("\n== Fault Variation Map (top of die first; ' ' "
                    "empty, '.' clean, 1-9/# buckets)\n%s",
                    fvm.render(floorplan).c_str());
    }
    return 0;
}
