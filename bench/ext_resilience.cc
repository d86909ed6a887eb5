/**
 * @file
 * Extension bench: campaign resilience vs injected fault pressure.
 *
 * The paper notes that "repeating these tests in more noisy and harsh
 * environments can cause observable faults above observed Vmin" — and a
 * real undervolting campaign also has to survive flaky instrumentation:
 * corrupted readback frames, NACKed PMBus transactions, mis-latched
 * setpoints, and spurious configuration crashes near Vcrash. This bench
 * sweeps the injected fault probability from 0 to 10% and shows that
 * the retry/recovery machinery (a) always completes the Listing-1
 * campaign, (b) reproduces the quiet campaign's fault statistics bit
 * for bit, and (c) costs wall-clock only in proportion to the noise,
 * with negligible overhead when the environment is quiet.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "harness/experiment.hh"
#include "pmbus/board.hh"
#include "util/table.hh"
#include "study.hh"

using namespace uvolt;

namespace
{

harness::SweepOptions
campaignOptions()
{
    harness::SweepOptions options;
    options.runsPerLevel = 21;
    return options;
}

double
timedSweep(pmbus::Board &board, harness::SweepResult &result)
{
    const auto start = std::chrono::steady_clock::now();
    result = harness::runCriticalSweep(board, campaignOptions());
    return study::msSince(start);
}

} // namespace

UVOLT_STUDY(ext_resilience)
{
    std::printf("# Extension: harsh-environment resilience of the "
                "Listing-1 campaign (ZC702)\n\n");
    std::printf("noise probability p applies to frame corruption, PMBus "
                "NACKs, setpoint jitter,\nand spurious crashes in the "
                "30 mV band above Vcrash; per-level statistics must\n"
                "match the quiet campaign bit for bit\n\n");

    // Warm-up pass (throwaway board) so the reference timing is not
    // polluted by first-touch costs. Every measured sweep below runs on
    // a fresh board so all campaigns draw the same run-jitter stream.
    harness::SweepResult reference;
    {
        pmbus::Board warmup_board(fpga::findPlatform("ZC702"));
        timedSweep(warmup_board, reference);
    }
    pmbus::Board quiet_board(fpga::findPlatform("ZC702"));
    const double quiet_ms = timedSweep(quiet_board, reference);

    TextTable table({"noise p", "completed", "bit-identical", "crashes "
                     "recovered", "runs retried", "link retransmits",
                     "pmbus retries", "wall-clock (ms)", "overhead"});

    for (double p : {0.0, 0.01, 0.02, 0.05, 0.10}) {
        pmbus::Board board(fpga::findPlatform("ZC702"));
        board.attachNoise(pmbus::NoiseConfig::harsh(2026, p));

        harness::SweepResult noisy;
        const double noisy_ms = timedSweep(board, noisy);
        const bool identical = study::sameSweep(reference, noisy);

        table.addRow({fmtPercent(p),
                      noisy.points.empty() ? "NO" : "yes",
                      identical ? "yes" : "NO",
                      std::to_string(noisy.resilience.crashRecoveries),
                      std::to_string(noisy.resilience.runsRetried),
                      std::to_string(noisy.resilience.linkRetransmits),
                      std::to_string(noisy.resilience.pmbusRetries),
                      fmtDouble(noisy_ms, 1),
                      fmtPercent(noisy_ms / quiet_ms - 1.0)});
    }
    table.print(std::cout);
    writeCsv(table, "results/ext_resilience.csv");

    std::printf("\nshape: completion and statistics hold at every noise "
                "level; retries and crash\nrecoveries grow with p and "
                "buy the wall-clock overhead, which vanishes as the\n"
                "environment quiets (p=0 with the injector attached "
                "should cost ~nothing vs the\nquiet reference at %.1f "
                "ms)\n",
                quiet_ms);
    return 0;
}
