/**
 * @file
 * Regenerates paper Fig 7: the FVMs of the two identical KC705 samples
 * at Vcrash differ in both rate and location — die-to-die process
 * variation. The paper's example: BRAM#(116,1) is high-vulnerable on
 * KC705-A but low-vulnerable on KC705-B. This bench renders both maps,
 * quantifies their disagreement, and prints the most extreme
 * "vulnerable-on-A, clean-on-B" sites.
 */

#include <cstdio>
#include <iostream>

#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "pmbus/board.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "study.hh"

using namespace uvolt;

namespace
{

harness::Fvm
mapOf(const char *platform)
{
    pmbus::Board board(fpga::findPlatform(platform));
    harness::SweepOptions options;
    options.runsPerLevel = 9;
    const harness::SweepResult sweep =
        harness::runCriticalSweep(board, options);
    return harness::fvmFromSweep(sweep, board.device().floorplan());
}

} // namespace

UVOLT_STUDY(fig07_fvm_die2die)
{
    std::printf("# Fig 7: FVMs of two identical KC705 samples at Vcrash "
                "(die-to-die variation)\n");

    const harness::Fvm map_a = mapOf("KC705-A");
    const harness::Fvm map_b = mapOf("KC705-B");
    const fpga::Floorplan plan = fpga::Floorplan::columnGrid(
        fpga::findPlatform("KC705-A").bramCount,
        fpga::findPlatform("KC705-A").columnHeight);

    std::printf("\n(a) KC705-A\n%s", map_a.render(plan).c_str());
    std::printf("\n(b) KC705-B\n%s", map_b.render(plan).c_str());

    // Quantify the disagreement.
    int a_only = 0, b_only = 0, both = 0, neither = 0;
    for (std::uint32_t b = 0; b < map_a.bramCount(); ++b) {
        const bool fa = map_a.faultsOf(b) > 0;
        const bool fb = map_b.faultsOf(b) > 0;
        a_only += (fa && !fb);
        b_only += (!fa && fb);
        both += (fa && fb);
        neither += (!fa && !fb);
    }
    std::printf("\nfaulty on A only: %d, on B only: %d, on both: %d, "
                "on neither: %d (of %u BRAMs)\n",
                a_only, b_only, both, neither, map_a.bramCount());

    // The paper's example site class: high on A, clean on B.
    TextTable examples({"site (y,x)", "faults on KC705-A",
                        "faults on KC705-B"});
    int listed = 0;
    for (std::uint32_t b = 0; b < map_a.bramCount() && listed < 5; ++b) {
        if (map_a.faultsOf(b) >= 20 && map_b.faultsOf(b) == 0) {
            const fpga::Site site = plan.siteOf(b);
            examples.addRow({strFormat("({},{})", site.y, site.x),
                             std::to_string(map_a.faultsOf(b)),
                             std::to_string(map_b.faultsOf(b))});
            ++listed;
        }
    }
    std::printf("\nhigh-vulnerable on A, clean on B (paper's "
                "BRAM#(116,1) example class):\n");
    examples.print(std::cout);
    writeCsv(examples, "results/fig07_die2die_examples.csv");
    return 0;
}
