/**
 * @file
 * Regenerates paper Table III: the baseline NN specification plus the
 * measured resource numbers of its deployment (BRAM usage on VC707).
 */

#include <cstdio>
#include <iostream>

#include "accel/weight_image.hh"
#include "nn/model_zoo.hh"
#include "nn/quantizer.hh"
#include "util/table.hh"
#include "study.hh"

using namespace uvolt;

UVOLT_STUDY(tab3_nn_spec)
{
    std::printf("# Table III: detailed specification of the baseline "
                "NN\n\n");
    const nn::ZooSpec spec = nn::paperMnistSpec();
    const nn::Network net = nn::trainOrLoad(spec);
    const nn::QuantizedModel model = nn::quantize(net);
    const accel::WeightImage image(model);

    TextTable table({"parameter", "value"});
    table.addRow({"Type", "Fully-Connected Classifier"});
    table.addRow({"Topology",
                  "6L (1L input, 4L hidden, 1L output)"});
    std::string sizes;
    for (std::size_t i = 0; i < spec.topology.size(); ++i)
        sizes += (i ? ", " : "") + std::to_string(spec.topology[i]);
    table.addRow({"Per-layer size (neurons)", "(" + sizes + ")"});
    table.addRow({"Total number of weights",
                  std::to_string(net.totalWeights())});
    table.addRow({"Activation function", "Logarithmic Sigmoid (logsig)"});
    table.addRow({"Major benchmark",
                  "MNIST-like handwritten digits (synthetic stand-in)"});
    table.addRow({"Images (training / inference)",
                  std::to_string(spec.trainCount) + " / 10000"});
    table.addRow({"Pixels per image", "28*28 = 784"});
    table.addRow({"Output classes", "10"});
    table.addRow({"Additional benchmarks",
                  "Forest-like, Reuters-like (synthetic stand-ins)"});
    table.addRow({"Data representation", "16-bit sign-magnitude "
                                         "fixed point"});
    table.addRow({"Precision", "min sign/digit per layer (Fig 9)"});
    table.addRow({"FPGA platform", "VC707 (Virtex-7)"});
    table.addRow({"Weight BRAMs (logical)",
                  std::to_string(image.logicalBramCount())});
    table.addRow({"BRAM usage (of 2060)",
                  fmtPercent(image.utilizationOf(2060))});
    table.print(std::cout);
    writeCsv(table, "results/tab3_nn_spec.csv");
    std::printf("\npaper anchors: ~1.5M weights, BRAM usage 70.8%%, "
                "last layer = 2 BRAMs (here: %u)\n",
                image.layerSpans().back().bramCount);
    return 0;
}
