/**
 * @file
 * Regenerates paper Fig 13: statistical analysis of the NN's layers —
 * size in BRAMs, number of undervolting faults observed at Vcrash with
 * the default placement, and the normalized per-fault vulnerability
 * from random fault injection. Paper shape: outer layers are larger
 * (so they absorb more faults), inner layers are more vulnerable per
 * fault (Layer4 ~6x Layer0), which is why ICBP protects the last layer.
 */

#include <cstdio>
#include <iostream>

#include "accel/accelerator.hh"
#include "accel/placement.hh"
#include "accel/vulnerability.hh"
#include "accel/weight_image.hh"
#include "nn/model_zoo.hh"
#include "nn/quantizer.hh"
#include "pmbus/board.hh"
#include "util/table.hh"
#include "study.hh"

using namespace uvolt;

UVOLT_STUDY(fig13_layer_vuln)
{
    std::printf("# Fig 13: per-layer size, faults at Vcrash, and "
                "normalized vulnerability (VC707 / MNIST)\n\n");

    const nn::ZooSpec zoo = nn::paperMnistSpec();
    const nn::Network net = nn::trainOrLoad(zoo);
    const nn::QuantizedModel model = nn::quantize(net);
    const data::Dataset test_set = nn::makeTestSet(zoo, 4000);

    // Observed faults per layer at Vcrash, default placement.
    const auto &spec = fpga::findPlatform("VC707");
    pmbus::Board board(spec);
    const accel::WeightImage image(model);
    // Same vulnerability-oblivious baseline as the Fig 11/14 benches.
    accel::Accelerator accel(
        board, image,
        accel::randomPlacement(image, board.device().bramCount(), 5));
    board.setVccBramMv(spec.calib.bramVcrashMv);
    board.startReferenceRun();
    const accel::WeightFaultReport faults = accel.weightFaults();
    board.softReset();

    // Per-fault sensitivity from controlled random injection.
    accel::InjectionOptions options;
    // Dose chosen well below the output layer's saturation point so
    // the per-fault comparison stays linear (2 BRAMs hold only ~9k "1"
    // bits; thousands of faults would saturate the small layers).
    options.faultsPerTrial = 100;
    options.trials = 5;
    options.evalLimit = nn::paperEvalLimit;
    const auto vulnerability =
        accel::analyzeLayerVulnerability(model, test_set, options);

    TextTable table({"layer", "#BRAMs", "#faults @ Vcrash",
                     "error delta / 100 faults",
                     "normalized vulnerability"});
    for (std::size_t l = 0; l < vulnerability.size(); ++l) {
        table.addRow({"Layer" + std::to_string(l),
                      std::to_string(vulnerability[l].brams),
                      std::to_string(faults.faultsPerLayer[l]),
                      fmtPercent(vulnerability[l].errorDelta, 3),
                      fmtDouble(vulnerability[l].normalizedVulnerability,
                                2)});
    }
    table.print(std::cout);
    writeCsv(table, "results/fig13_layer_vuln.csv");

    const double ratio = vulnerability.front().errorDelta > 0.0
        ? vulnerability.back().errorDelta /
            vulnerability.front().errorDelta
        : 0.0;
    std::printf("\nLayer%zu / Layer0 per-fault vulnerability: %.1fx "
                "(paper: ~6x); paper shape: inner layers more "
                "vulnerable, outer layers larger\n",
                vulnerability.size() - 1, ratio);
    return 0;
}
