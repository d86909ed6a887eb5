/**
 * @file
 * Regenerates paper Fig 6: the Fault Variation Map of VC707, i.e. every
 * BRAM's fault count accumulated while scaling VCCBRAM from Vmin =
 * 0.61 V to Vcrash = 0.54 V, mapped to its physical (X, Y) site.
 * Rendered as ASCII art (the paper renders a colored floorplan): ' '
 * for empty sites, '.' for fault-free BRAMs, '1'-'9'/'#' buckets by
 * fault count. A CSV with exact (x, y, faults) triplets is written for
 * external plotting.
 */

#include <cstdio>
#include <iostream>

#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "pmbus/board.hh"
#include "util/table.hh"
#include "study.hh"

using namespace uvolt;

UVOLT_STUDY(fig06_fvm_vc707)
{
    std::printf("# Fig 6: Fault Variation Map, VC707, Vmin=0.61V -> "
                "Vcrash=0.54V\n\n");

    pmbus::Board board(fpga::findPlatform("VC707"));
    harness::SweepOptions options;
    options.runsPerLevel = 9;
    const harness::SweepResult sweep =
        harness::runCriticalSweep(board, options);
    const harness::Fvm fvm =
        harness::fvmFromSweep(sweep, board.device().floorplan());

    std::printf("%s\n", fvm.render(board.device().floorplan()).c_str());
    std::printf("' ' empty site, '.' fault-free BRAM, 1-9/# fault "
                "buckets; %u BRAMs total, %.1f%% fault-free\n",
                fvm.bramCount(), fvm.faultFreeFraction() * 100.0);

    TextTable csv({"x", "y", "faults"});
    for (std::uint32_t b = 0; b < fvm.bramCount(); ++b) {
        const fpga::Site site = board.device().floorplan().siteOf(b);
        csv.addRow({std::to_string(site.x), std::to_string(site.y),
                    std::to_string(fvm.faultsOf(b))});
    }
    writeCsv(csv, "results/fig06_fvm_vc707.csv");
    return 0;
}
