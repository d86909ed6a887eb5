/**
 * @file
 * Extension bench: online minimum-voltage tracking with canary BRAMs.
 *
 * The paper measures Vmin offline and shows it moves with temperature
 * (ITD, Fig 8). This bench closes the loop: a governor keeps a handful
 * of the chip's weakest spare BRAMs as canaries and walks VCCBRAM down
 * until they fault, holding one 10 mV guard step above. Across the
 * heat-chamber range the tracked setpoint follows the ITD-shifted
 * boundary, harvesting extra margin at higher temperatures that a
 * static offline Vmin would leave on the table.
 */

#include <cstdio>
#include <iostream>

#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "harness/governor.hh"
#include "pmbus/board.hh"
#include "power/power_model.hh"
#include "util/table.hh"
#include "study.hh"

using namespace uvolt;

UVOLT_STUDY(ext_governor)
{
    std::printf("# Extension: canary-based online Vmin tracking vs "
                "temperature (VC707)\n\n");

    pmbus::Board board(fpga::findPlatform("VC707"));
    harness::SweepOptions options;
    options.runsPerLevel = 5;
    const harness::SweepResult sweep =
        harness::runCriticalSweep(board, options);
    const harness::Fvm fvm =
        harness::fvmFromSweep(sweep, board.device().floorplan());
    const power::RailPowerModel rail(board.spec());

    TextTable table({"ambient", "tracked setpoint", "steps to settle",
                     "BRAM power (W)", "saving vs static Vmin"});
    const double static_vmin_w =
        rail.bramPower(board.spec().calib.bramVminMv / 1000.0);
    for (double temp : {50.0, 60.0, 70.0, 80.0}) {
        board.softReset();
        board.setAmbientC(temp);
        harness::VoltageGovernor governor(board, fvm, {});
        const auto trace = governor.settle();
        const double watts =
            rail.bramPower(governor.setpointMv() / 1000.0);
        table.addRow({fmtDouble(temp, 0) + " degC",
                      fmtVolts(governor.setpointMv() / 1000.0),
                      std::to_string(trace.size()),
                      fmtDouble(watts, 4),
                      fmtPercent(1.0 - watts / static_vmin_w)});
    }
    board.setAmbientC(50.0);
    board.softReset();
    table.print(std::cout);
    writeCsv(table, "results/ext_governor.csv");

    std::printf("\nshape: the tracked setpoint descends with "
                "temperature (ITD), recovering power a static offline "
                "Vmin forfeits; the canaries are the chip's weakest "
                "cells under the worst-case pattern, so canary-clean "
                "implies payload-clean with margin\n");
    return 0;
}
