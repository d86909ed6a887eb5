/**
 * @file
 * Example: the paper's Section III experiment end-to-end.
 *
 * Deploys the Table III fully-connected NN on a VC707 board model with
 * its ~1.5 M fixed-point weights in BRAM, then underscales VCCBRAM from
 * Vmin to Vcrash and reports, at every 10 mV step: the weight-bit fault
 * count, the classification error with the stock (default) placement,
 * the classification error with ICBP placement, and the BRAM power.
 *
 * Usage:
 *   nn_undervolt [--benchmark mnist|forest|reuters] [--platform VC707]
 *                [--eval 2500] [--csv out.csv]
 */

#include <cstdio>
#include <iostream>

#include "accel/accelerator.hh"
#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "harness/clusterer.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "nn/model_zoo.hh"
#include "nn/quantizer.hh"
#include "power/power_model.hh"
#include "pmbus/board.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace uvolt;

int
main(int argc, char **argv)
{
    CliParser cli("FPGA-based NN accelerator under BRAM undervolting "
                  "(paper Section III)");
    cli.addString("benchmark", "mnist", "mnist | forest | reuters");
    cli.addString("platform", "VC707", "board to deploy on");
    cli.addInt("eval", 2500, "test samples per voltage point");
    cli.addString("csv", "", "optional CSV output path");
    if (!cli.tryParse(argc, argv).orFatal())
        return 0;

    const auto &spec = fpga::findPlatform(cli.getString("platform"));
    const std::string benchmark = cli.getString("benchmark");
    const auto eval_limit =
        static_cast<std::size_t>(cli.getInt("eval"));

    // --- 1. Train (or load) and quantize the application -----------------
    nn::ZooSpec zoo = benchmark == "forest" ? nn::paperForestSpec()
        : benchmark == "reuters"            ? nn::paperReutersSpec()
                                            : nn::paperMnistSpec();
    const nn::Network net = nn::trainOrLoad(zoo);
    const nn::QuantizedModel model = nn::quantize(net);
    const data::Dataset test_set = nn::makeTestSet(zoo);

    const double inherent =
        model.toNetwork().evaluateError(test_set, eval_limit);
    std::printf("benchmark %s on %s: %zu weights, inherent error %.2f%%, "
                "weight bits %.1f%% zero\n",
                benchmark.c_str(), spec.name.c_str(), model.totalWeights(),
                inherent * 100.0, model.zeroBitFraction() * 100.0);

    // --- 2. Characterize the chip and extract its FVM --------------------
    pmbus::Board board(spec);
    harness::SweepOptions sweep_options;
    sweep_options.runsPerLevel = 5; // FVM needs locations, not statistics
    const harness::SweepResult sweep =
        harness::runCriticalSweep(board, sweep_options);
    const harness::Fvm fvm =
        harness::fvmFromSweep(sweep, board.device().floorplan());

    // --- 3. Deploy with both placements ----------------------------------
    const accel::WeightImage image(model);
    if (!accel::defaultPlacement(image).fits(board.device().bramCount())) {
        std::printf("model does not fit on %s; choose a larger platform\n",
                    spec.name.c_str());
        return 1;
    }
    // Vulnerability-oblivious baseline (see DESIGN.md on "default").
    accel::Accelerator stock(
        board, image,
        accel::randomPlacement(image, board.device().bramCount(), 5));
    accel::Accelerator icbp(board, image,
                            accel::icbpPlacement(image, fvm));
    const power::RailPowerModel rail(spec);

    // --- 4. Voltage sweep -------------------------------------------------
    TextTable table({"VCCBRAM", "weight-faults(default)", "err(default)",
                     "weight-faults(ICBP)", "err(ICBP)", "BRAM power W"});
    for (int mv = spec.calib.bramVminMv; mv >= spec.calib.bramVcrashMv;
         mv -= 10) {
        board.setVccBramMv(mv);
        board.startReferenceRun();

        stock.program();
        const auto stock_faults = stock.weightFaults().total;
        const double stock_error =
            stock.classificationError(test_set, eval_limit);

        icbp.program();
        const auto icbp_faults = icbp.weightFaults().total;
        const double icbp_error =
            icbp.classificationError(test_set, eval_limit);

        table.addRow({fmtVolts(mv / 1000.0),
                      std::to_string(stock_faults),
                      fmtPercent(stock_error, 2),
                      std::to_string(icbp_faults),
                      fmtPercent(icbp_error, 2),
                      fmtDouble(rail.bramPower(mv / 1000.0), 3)});
    }
    board.softReset();

    table.print(std::cout);
    if (const std::string path = cli.getString("csv"); !path.empty())
        writeCsv(table, path);

    // --- 5. Headline comparison at Vcrash ---------------------------------
    std::printf("\nBRAM power saving at Vcrash vs Vmin: %.1f%%\n",
                rail.savingVs(spec.calib.bramVcrashMv / 1000.0,
                              spec.calib.bramVminMv / 1000.0) * 100.0);
    return 0;
}
