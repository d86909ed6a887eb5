/**
 * @file
 * Quickstart: a five-minute tour of the library.
 *
 *  1. Describe a characterization campaign with the Campaign builder
 *     (one modeled Xilinx board, the paper's 0xFFFF pattern).
 *  2. Run it: region discovery (Fig 1) + a Listing-1 sweep in one call.
 *  3. Peek under the hood: read a faulty BRAM back over the serial link.
 *  4. Ask the power model what the trip was worth.
 *
 * Usage: quickstart [--platform VC707|ZC702|KC705-A|KC705-B]
 *                   [--runs 25] [--noise 0.02] [--seed 1]
 *
 * With --noise p the board sits in a harsh environment: serial frames
 * corrupt, PMBus transactions NACK, setpoints jitter, and the
 * configuration can crash spuriously near Vcrash — all with probability
 * p, drawn from a stream seeded by --seed. The retry/recovery layer
 * masks every one of them, so the printed results do not change.
 */

#include <cstdio>

#include "harness/campaign.hh"
#include "harness/fault_analyzer.hh"
#include "power/power_model.hh"
#include "pmbus/board.hh"
#include "util/cli.hh"

using namespace uvolt;

int
main(int argc, char **argv)
{
    CliParser cli("Quickstart tour of the FPGA undervolting library");
    cli.addString("platform", "VC707", "board to model");
    cli.addInt("runs", 25, "repetitions per voltage level");
    cli.addDouble("noise", 0.0,
                  "harsh-environment fault probability (0..1)");
    cli.addInt("seed", 1, "seed for the injected-fault stream");
    if (!cli.tryParse(argc, argv).orFatal())
        return 0;

    const auto &spec = fpga::findPlatform(cli.getString("platform"));
    std::printf("%s (%s, %s): %u BRAMs of 16 kbit, VCCBRAM nominal %d mV\n",
                spec.name.c_str(), spec.family.c_str(),
                spec.chipModel.c_str(), spec.bramCount, spec.vnomMv);

    // 1.+2. One fluent description, one call: find the SAFE / CRITICAL /
    //    CRASH regions of Fig 1, then sweep the critical region per the
    //    paper's Listing 1. Everything below rides on the result.
    harness::Campaign campaign =
        harness::Campaign::onPlatform(spec.name)
            .withPattern(harness::PatternSpec::allOnes())
            .sweep(static_cast<int>(cli.getInt("runs")))
            .discoverRegions();
    const double noise = cli.getDouble("noise");
    if (noise != 0.0) {
        campaign.withNoise(pmbus::NoiseConfig::harsh(
            static_cast<std::uint64_t>(cli.getInt("seed")), noise));
        std::printf("harsh environment: %.1f%% injected fault "
                    "probability on every channel\n",
                    noise * 100.0);
    }
    const harness::FleetResult result = campaign.run().orFatal();
    const harness::FleetJobOutcome &outcome = result.jobs.front();

    const harness::RegionResult &regions = *outcome.bramRegions;
    std::printf("SAFE down to %d mV (guardband %.0f%%), CRITICAL down to "
                "%d mV, then CRASH\n",
                regions.vminMv, regions.guardband() * 100.0,
                regions.vcrashMv);

    const harness::SweepPoint &worst = outcome.sweep.atVcrash();
    std::printf("at %d mV: median %.0f faulty bitcells (%.0f per Mbit), "
                "%.2f%% of them \"1\"->\"0\" flips\n",
                worst.vccBramMv, worst.medianFaults, worst.faultsPerMbit,
                worst.oneToZeroFraction * 100.0);

    // 3. Under the hood (the advanced path the builder wraps): power up
    //    the board directly, drop into the critical region, and read one
    //    faulty BRAM back over the serial link.
    pmbus::Board board(spec);
    harness::fillPattern(board, harness::PatternSpec::allOnes());
    board.setVccBramMv(regions.vcrashMv);
    board.startReferenceRun();

    harness::FaultSummary summary;
    std::vector<harness::FaultObservation> faults;
    std::vector<std::uint64_t> plane(fpga::bramWords);
    for (std::uint32_t b = 0; b < board.device().bramCount(); ++b) {
        board.tryReadBramPacked(b, plane).orFatal();
        harness::diffBram(board.device().bram(b), plane, b, faults, summary);
    }
    if (!faults.empty()) {
        const auto &first = faults.front();
        std::printf("first fault: BRAM %u, row %u, bit %u\n", first.bram,
                    first.row, first.col);
    }
    board.softReset();

    // 4. What was it worth? Ask the power model.
    const power::RailPowerModel rail(spec);
    std::printf("BRAM rail power: %.3f W nominal -> %.3f W at Vmin "
                "(%.1fx) -> %.3f W at Vcrash\n",
                rail.bramPower(1.0), rail.bramPower(regions.vminMv / 1e3),
                rail.bramPower(1.0) / rail.bramPower(regions.vminMv / 1e3),
                rail.bramPower(regions.vcrashMv / 1e3));

    if (noise > 0.0) {
        const auto &cost = result.resilience;
        std::printf("surviving the environment cost: %llu crash "
                    "recoveries, %llu runs retried, %llu link "
                    "retransmits, %llu PMBus retries\n",
                    static_cast<unsigned long long>(cost.crashRecoveries),
                    static_cast<unsigned long long>(cost.runsRetried),
                    static_cast<unsigned long long>(cost.linkRetransmits),
                    static_cast<unsigned long long>(cost.pmbusRetries));
    }
    return 0;
}
