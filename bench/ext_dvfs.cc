/**
 * @file
 * Extension bench (not a paper figure): DVFS vs aggressive BRAM
 * undervolting, quantifying the paper's Section IV-A.2 argument. DVFS
 * scales voltage and clock together and never faults, but it loses
 * throughput and it cannot descend below the logic rail's critical
 * operating point; the paper's approach keeps the clock at 100 MHz,
 * drops only VCCBRAM into the CRITICAL region, and relies on ICBP for
 * the faults. Reported per operating point: clock, throughput,
 * total power, and energy per inference for the Table III design.
 */

#include <cstdio>
#include <iostream>

#include "accel/perf_model.hh"
#include "power/dvfs.hh"
#include "power/power_model.hh"
#include "util/table.hh"
#include "study.hh"

using namespace uvolt;

UVOLT_STUDY(ext_dvfs)
{
    std::printf("# Extension: DVFS vs constant-frequency BRAM "
                "undervolting (Table III design on VC707)\n\n");

    const auto &spec = fpga::findPlatform("VC707");
    const std::vector<int> topology{784, 1024, 512, 256, 128, 10};

    // Fig 10's on-chip breakdown gives the logic ("rest") power.
    const auto design = power::OnChipBreakdown::nnDesign(spec);
    const double logic_nominal_w = design.at(1.0).restW;

    const power::DvfsPolicy policy(spec, 100.0);
    const accel::PerfModel perf(topology, spec, logic_nominal_w);

    TextTable table({"scheme", "VCCINT", "VCCBRAM", "clock MHz",
                     "inf/s", "power W", "mJ/inf", "BRAM faults?"});
    auto add = [&](const char *name, const power::OperatingPoint &point) {
        const accel::PerfPoint result = perf.evaluate(point);
        table.addRow({name, fmtVolts(point.vccIntV),
                      fmtVolts(point.vccBramV),
                      fmtDouble(result.clockMhz, 1),
                      fmtDouble(result.inferencesPerSecond, 0),
                      fmtDouble(result.totalPowerW, 3),
                      fmtDouble(result.energyPerInferenceMj, 4),
                      point.bramFaultsPossible ? "yes (ICBP)" : "no"});
    };

    add("nominal", policy.undervoltPoint(1.0));
    // DVFS ladder down to its floor (the logic critical point).
    for (int mv = 900; mv >= spec.calib.intVminMv; mv -= 80)
        add("DVFS", policy.dvfsPoint(mv / 1000.0));
    add("DVFS (floor)", policy.dvfsPoint(spec.calib.intVminMv / 1000.0));
    // The paper's scheme: full clock, BRAM rail at Vmin then Vcrash.
    add("BRAM undervolt @Vmin",
        policy.undervoltPoint(spec.calib.bramVminMv / 1000.0));
    add("BRAM undervolt @Vcrash",
        policy.undervoltPoint(spec.calib.bramVcrashMv / 1000.0));

    table.print(std::cout);
    writeCsv(table, "results/ext_dvfs.csv");

    const auto dvfs_floor = perf.evaluate(
        policy.dvfsPoint(spec.calib.intVminMv / 1000.0));
    const auto uvolt = perf.evaluate(
        policy.undervoltPoint(spec.calib.bramVcrashMv / 1000.0));
    std::printf("\nat its floor, DVFS gives %.0f%% of nominal "
                "throughput; BRAM undervolting keeps 100%% and spends "
                "%.1f%% less energy per inference than nominal\n",
                dvfs_floor.inferencesPerSecond /
                    perf.evaluate(policy.undervoltPoint(1.0))
                        .inferencesPerSecond * 100.0,
                (1.0 - uvolt.energyPerInferenceMj /
                           perf.evaluate(policy.undervoltPoint(1.0))
                               .energyPerInferenceMj) * 100.0);
    return 0;
}
