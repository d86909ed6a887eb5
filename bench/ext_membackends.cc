/**
 * @file
 * Extension bench: one fleet, three memory technologies.
 *
 * The paper characterizes FPGA BRAM; the follow-up work applies the
 * same methodology to HBM2 stacks (arXiv:2101.00969) and MoRS-modeled
 * SRAMs (arXiv:2110.05855). With every technology behind the
 * MemoryDevice interface, a single FleetEngine run can sweep a
 * heterogeneous population — which is exactly what this bench does:
 *
 *  (a) a mixed {VC707, HBM2-A, MORS-SRAM-A} x 2-pattern fleet runs
 *      serially, on 1 worker, and on 8 workers; every per-job sweep
 *      must be bit-identical across the three schedules (the exit
 *      code),
 *  (b) the per-technology envelope table (Vmin/Vcrash guardband,
 *      faults/Mbit at Vcrash, rail power saving at Vmin) is written to
 *      results/ext_membackends.csv. Every value in the CSV is a pure
 *      function of the catalog specs and the seeded fault
 *      personalities — no wall-clock — so CI compares it byte-for-byte
 *      against the committed golden (goldens/ext_membackends.csv),
 *  (c) one run record (serial/parallel wall clock, speedup) is
 *      appended for scripts/check_perf.py.
 */

#include <chrono>
#include <cstdio>
#include <iostream>

#include "harness/campaign.hh"
#include "harness/run_record.hh"
#include "mem/catalog.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "study.hh"

using namespace uvolt;

namespace
{

const char *const kFleet[] = {"VC707", "HBM2-A", "MORS-SRAM-A"};

} // namespace

UVOLT_STUDY(ext_membackends)
{
    harness::RunRecord record = harness::RunRecord::start(
        "ext_membackends", "ext_membackends;devices=3;patterns=2;sweep=9");
    const auto run_start = std::chrono::steady_clock::now();
    std::printf("# Extension: heterogeneous memory fleet "
                "(BRAM + HBM + MoRS-SRAM)\n\n");

    const harness::Campaign campaign =
        harness::Campaign::onDevices(
            {kFleet[0], kFleet[1], kFleet[2]})
            .withPatterns({harness::PatternSpec::allOnes(),
                           harness::PatternSpec::fixed(0x0000)})
            .sweep(9)
            .ledgerUnder("");

    // --- (a) bit-identity across schedules -------------------------------
    auto serial_start = std::chrono::steady_clock::now();
    const harness::FleetResult serial = campaign.run().orFatal();
    const double serial_ms = study::msSince(serial_start);

    ThreadPool one(1);
    const harness::FleetResult single = campaign.run(one).orFatal();

    ThreadPool eight(8);
    auto parallel_start = std::chrono::steady_clock::now();
    const harness::FleetResult parallel = campaign.run(eight).orFatal();
    const double parallel_ms = study::msSince(parallel_start);

    const bool identical =
        study::sameFleet(serial, single) && study::sameFleet(serial, parallel);
    std::printf("schedules: serial %.1f ms, 8 workers %.1f ms "
                "(%.2fx); 0/1/8-worker sweeps bit-identical: %s\n\n",
                serial_ms, parallel_ms, serial_ms / parallel_ms,
                identical ? "yes" : "NO");

    // --- (b) the per-technology envelope table (the golden) ---------------
    // Deterministic by construction: catalog constants, seeded fault
    // personalities, and the stateless sweep — nothing here may depend
    // on timing, worker count, or host.
    TextTable table({"device", "technology", "die", "vnom (mV)",
                     "vmin (mV)", "vcrash (mV)", "guardband",
                     "faults/Mbit @ Vcrash", "power saving @ Vmin"});
    for (const char *name : kFleet) {
        const mem::DeviceTraits traits = mem::traitsOfName(name);
        const auto device = mem::makeDevice(name);
        const harness::DieReport &die = parallel.die(name);
        const double guardband =
            1.0 - static_cast<double>(traits.vminMv) / traits.vnomMv;
        const double saving = device->railPowerW(traits.vnomMv / 1e3) /
            device->railPowerW(traits.vminMv / 1e3);
        table.addRow({traits.name,
                      mem::technologyName(traits.technology),
                      traits.dieId, std::to_string(traits.vnomMv),
                      std::to_string(traits.vminMv),
                      std::to_string(traits.vcrashMv),
                      strFormat("{:.1f}%", guardband * 100.0),
                      fmtDouble(die.faultsPerMbitAtVcrash, 1),
                      strFormat("{:.2f}x", saving)});
    }
    table.print(std::cout);
    writeCsv(table, "results/ext_membackends.csv");
    std::printf("\nwrote results/ext_membackends.csv (golden: "
                "goldens/ext_membackends.csv)\n");

    // --- (c) run record ----------------------------------------------------
    record.workers = 8;
    record.durationMs = study::msSince(run_start);
    record.metrics = {{"serial_ms", serial_ms},
                      {"parallel_ms", parallel_ms},
                      {"speedup", serial_ms / parallel_ms}};
    study::appendRecord(record, harness::defaultTimelinePath());

    std::printf("\nshape: three technologies through one FleetEngine, "
                "bit-identical at\n0/1/8 workers; the envelope CSV is "
                "byte-stable and gated as a golden\n");
    return identical ? 0 : 1;
}
