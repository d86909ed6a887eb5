/**
 * @file
 * Regenerates paper Fig 4: impact of the initial data pattern on the
 * VC707 fault rate across the CRITICAL region. The paper's findings:
 * 16'hFFFF doubles any 50%-ones pattern (16'hAAAA, 16'h5555, random
 * 50%), the 50% patterns are mutually indistinguishable, and 16'h0000
 * shows almost nothing — because ~99.9% of undervolting faults are
 * "1"->"0" flips.
 */

#include <cstdio>
#include <iostream>

#include "harness/experiment.hh"
#include "pmbus/board.hh"
#include "util/table.hh"
#include "study.hh"

using namespace uvolt;

UVOLT_STUDY(fig04_patterns)
{
    std::printf("# Fig 4: data-pattern impact on the fault rate (VC707, "
                "faults per Mbit)\n\n");
    pmbus::Board board(fpga::findPlatform("VC707"));

    const std::vector<harness::PatternSpec> patterns = {
        harness::PatternSpec::allOnes(),
        harness::PatternSpec::fixed(0xAAAA),
        harness::PatternSpec::fixed(0x5555),
        harness::PatternSpec::random(0.5, 3),
        harness::PatternSpec::fixed(0x0000),
    };

    std::vector<harness::SweepResult> sweeps;
    for (const auto &pattern : patterns) {
        harness::SweepOptions options;
        options.pattern = pattern;
        options.runsPerLevel = 31;
        options.collectPerBram = false;
        sweeps.push_back(harness::runCriticalSweep(board, options));
    }

    std::vector<std::string> header{"VCCBRAM"};
    for (const auto &pattern : patterns)
        header.push_back(pattern.label());
    TextTable table(std::move(header));
    for (std::size_t p = 0; p < sweeps.front().points.size(); ++p) {
        std::vector<std::string> row{
            fmtVolts(sweeps.front().points[p].vccBramMv / 1000.0)};
        for (const auto &sweep : sweeps)
            row.push_back(fmtDouble(sweep.points[p].faultsPerMbit, 1));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    writeCsv(table, "results/fig04_patterns.csv");

    const double ones = sweeps[0].atVcrash().medianFaults;
    std::printf("\nratios at Vcrash vs 16'hFFFF: AAAA %.2f, 5555 %.2f, "
                "random-50%% %.2f, 0000 %.4f "
                "(paper: ~0.5 / ~0.5 / ~0.5 / ~0)\n",
                sweeps[1].atVcrash().medianFaults / ones,
                sweeps[2].atVcrash().medianFaults / ones,
                sweeps[3].atVcrash().medianFaults / ones,
                sweeps[4].atVcrash().medianFaults / ones);
    return 0;
}
