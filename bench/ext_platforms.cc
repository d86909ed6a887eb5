/**
 * @file
 * Extension bench (the paper's stated future work): undervolting
 * behaviour projected onto newer FPGA technologies — a 20 nm
 * UltraScale-class part and a 16 nm FinFET UltraScale+-class part —
 * side by side with the measured 28 nm VC707. These platforms are
 * extrapolations (see fpga::extensionPlatformCatalog()); the bench
 * shows how the methodology transfers: region discovery, critical-
 * region sweeps, and the node-dependence of inverse thermal dependence
 * (ITD weakens dramatically on FinFETs).
 */

#include <cstdio>
#include <iostream>

#include "harness/experiment.hh"
#include "harness/temperature.hh"
#include "pmbus/board.hh"
#include "util/table.hh"
#include "study.hh"

using namespace uvolt;

UVOLT_STUDY(ext_platforms)
{
    std::printf("# Extension: undervolting on newer FPGA nodes "
                "(projections, not measurements)\n\n");

    std::vector<const fpga::PlatformSpec *> specs{
        &fpga::findPlatform("VC707")};
    for (const auto &spec : fpga::extensionPlatformCatalog())
        specs.push_back(&spec);

    TextTable regions({"platform", "node", "Vnom", "Vmin", "Vcrash",
                       "guardband", "faults/Mbit @Vcrash",
                       "ITD 50->80degC"});
    for (const auto *spec : specs) {
        pmbus::Board board(*spec);
        const auto result =
            harness::tryDiscoverRegions(board, fpga::RailId::VccBram)
                .orFatal();

        const auto study =
            harness::runTemperatureStudy(board, {50.0, 80.0}, 15);
        const double itd_factor = study.reductionFactor(80.0, 50.0);
        const double rate =
            study.series.front().sweep.atVcrash().faultsPerMbit;

        regions.addRow({spec->name,
                        std::to_string(spec->processNm) + "nm",
                        fmtVolts(spec->vnomMv / 1000.0),
                        fmtVolts(result.vminMv / 1000.0),
                        fmtVolts(result.vcrashMv / 1000.0),
                        fmtPercent(result.guardband()),
                        fmtDouble(rate, 0),
                        fmtDouble(itd_factor, 2) + "x"});
    }
    regions.print(std::cout);
    writeCsv(regions, "results/ext_platforms.csv");
    std::printf("\nshape: guardbands persist on newer nodes (still "
                "worth harvesting), while the ITD fault-rate relief "
                "shrinks toward 1x on 16 nm FinFET — temperature-aware "
                "undervolting policies are a 28 nm phenomenon\n");
    return 0;
}
