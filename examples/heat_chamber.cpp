/**
 * @file
 * Example: the paper's heat-chamber campaign (Section II-D, Fig 8).
 *
 * Puts one or more boards in the (modeled) temperature chamber and
 * repeats the critical-region sweep at several on-board temperatures,
 * demonstrating Inverse Thermal Dependence: at near-threshold voltages,
 * heating the 28 nm parts *lowers* the undervolting fault rate, and
 * with it the effective Vmin.
 *
 * Usage:
 *   heat_chamber [--platforms VC707,KC705-A] [--temps 50,60,70,80]
 *                [--runs 25]
 */

#include <cstdio>
#include <iostream>
#include <sstream>

#include "harness/temperature.hh"
#include "pmbus/board.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace uvolt;

namespace
{

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> parts;
    std::istringstream stream(text);
    std::string item;
    while (std::getline(stream, item, ','))
        parts.push_back(item);
    return parts;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Heat-chamber study of FPGA BRAM undervolting faults "
                  "(paper Fig 8)");
    cli.addString("platforms", "VC707,KC705-A", "comma-separated boards");
    cli.addString("temps", "50,60,70,80", "comma-separated degC");
    cli.addInt("runs", 25, "repetitions per voltage level");
    if (!cli.tryParse(argc, argv).orFatal())
        return 0;

    std::vector<double> temps;
    for (const auto &t : splitCommas(cli.getString("temps")))
        temps.push_back(std::stod(t));

    for (const auto &name : splitCommas(cli.getString("platforms"))) {
        const auto &spec = fpga::findPlatform(name);
        pmbus::Board board(spec);

        std::printf("== %s in the chamber (ITD slope %.2f mV/degC)\n",
                    spec.name.c_str(), spec.calib.itdMvPerC);
        const harness::TemperatureStudy study =
            harness::runTemperatureStudy(
                board, temps, static_cast<int>(cli.getInt("runs")));

        // One column per temperature, one row per voltage.
        std::vector<std::string> header{"VCCBRAM"};
        for (double t : temps)
            header.push_back(fmtDouble(t, 0) + " degC");
        TextTable table(std::move(header));
        for (std::size_t p = 0;
             p < study.series.front().sweep.points.size(); ++p) {
            std::vector<std::string> row;
            row.push_back(fmtVolts(
                study.series.front().sweep.points[p].vccBramMv / 1000.0));
            for (const auto &series : study.series) {
                row.push_back(fmtDouble(
                    series.sweep.points[p].faultsPerMbit, 1));
            }
            table.addRow(std::move(row));
        }
        std::printf("faults per Mbit at each (voltage, temperature):\n");
        table.print(std::cout);

        if (temps.size() >= 2) {
            std::printf("fault-rate reduction %.0f -> %.0f degC at "
                        "Vcrash: %.2fx\n\n",
                        temps.front(), temps.back(),
                        study.reductionFactor(temps.back(),
                                              temps.front()));
        }
    }
    return 0;
}
