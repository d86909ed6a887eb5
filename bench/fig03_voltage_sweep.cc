/**
 * @file
 * Regenerates paper Fig 3 (a-d): fault rate (faults per Mbit, median of
 * 100 runs, pattern 16'hFFFF) and BRAM power vs VCCBRAM through the
 * CRITICAL region, for each of the four platforms. The paper's anchors:
 * 652 / 153 / 254 / 60 faults per Mbit at Vcrash for VC707 / ZC702 /
 * KC705-A / KC705-B, > 10x power reduction at Vmin, and a 4.1x
 * KC705-A-to-B ratio from die-to-die variation.
 */

#include <cstdio>
#include <iostream>

#include "harness/experiment.hh"
#include "pmbus/board.hh"
#include "util/table.hh"
#include "study.hh"

using namespace uvolt;

UVOLT_STUDY(fig03_voltage_sweep)
{
    std::printf("# Fig 3: fault rate and BRAM power vs VCCBRAM "
                "(pattern 16'hFFFF, median of 100 runs, 50 degC)\n");

    const char *panel = "abcd";
    int index = 0;
    double kc705a_rate = 0.0;
    for (const auto &spec : fpga::platformCatalog()) {
        pmbus::Board board(spec);
        harness::SweepOptions options;
        options.collectPerBram = false;
        const harness::SweepResult sweep =
            harness::runCriticalSweep(board, options);

        std::printf("\n(%c) %s\n", panel[index++], spec.name.c_str());
        TextTable table({"VCCBRAM", "faults/Mbit", "BRAM power (W)",
                         "power vs nominal"});
        for (const auto &point : sweep.points) {
            table.addRow({fmtVolts(point.vccBramMv / 1000.0),
                          fmtDouble(point.faultsPerMbit, 1),
                          fmtDouble(point.bramPowerW, 4),
                          fmtPercent(point.bramPowerW /
                                     spec.calib.bramPowerNomW, 1)});
        }
        table.print(std::cout);
        writeCsv(table, "results/fig03_" + spec.name + ".csv");

        const double rate = sweep.atVcrash().faultsPerMbit;
        std::printf("at Vcrash: %.0f faults/Mbit (paper: %.0f)\n", rate,
                    spec.calib.faultsPerMbitAtVcrash);
        if (spec.name == "KC705-A")
            kc705a_rate = rate;
        if (spec.name == "KC705-B") {
            std::printf("die-to-die ratio KC705-A / KC705-B: %.1fx "
                        "(paper: 4.1x)\n",
                        kc705a_rate / rate);
        }
    }
    return 0;
}
