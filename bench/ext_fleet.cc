/**
 * @file
 * Extension bench: the parallel fleet-campaign engine.
 *
 * The paper's evaluation is a cross product of campaigns — four boards
 * for the guardband study, five patterns, four temperatures, twin
 * KC705 dies — each an independent hours-long sweep on real hardware.
 * The simulated reproduction inherits that structure, so a fleet of
 * campaigns is embarrassingly parallel as long as the results stay a
 * pure function of the plan.
 *
 * This bench runs a 4-die x 3-pattern fleet (the Fig 1 boards under
 * the Fig 4 patterns) three ways and reports:
 *  (a) wall-clock speedup of the ThreadPool fleet over the serial one
 *      (target: >= 3x on >= 4 cores),
 *  (b) byte-identity of every per-job sweep against the serial run
 *      (the exit code; the speedup never fails the run),
 *  (c) FvmCache traffic: a cold obtain() characterizes once per die,
 *      a warm one is served from memory/disk with the hit rate shown
 *      (read back from the telemetry registry, the same counters every
 *      consumer sees),
 *  (d) the observability artifacts themselves: a Chrome trace of the
 *      pooled fleet (results/ext_fleet_trace.json — drop it on
 *      ui.perfetto.dev), the merged metrics snapshot
 *      (results/ext_fleet_metrics.prom, Prometheus text), and the exact
 *      self-time profile folded from those same recorded spans
 *      (results/profile_ext_fleet.folded in ns for flamegraph tools,
 *      .html as a self-contained flame graph — the README "Profile a
 *      campaign" walkthrough).
 *
 * The run also appends one run record (serial/parallel wall clock,
 * speedup, and each profiled frame's <frame>.self_ms) to
 * results/timeline.jsonl so scripts/check_perf.py can flag cross-run
 * drift; each of its two FleetEngine runs appends its own record to
 * the ledger.
 */

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "harness/campaign.hh"
#include "harness/report.hh"
#include "harness/run_record.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "util/telemetry.hh"
#include "study.hh"

using namespace uvolt;

UVOLT_STUDY(ext_fleet)
{
    const bool telemetry_on = telemetry::Telemetry::enabled();
    telemetry::Telemetry::setEnabled(true);
    const auto run_start = std::chrono::steady_clock::now();
    const std::size_t workers = ThreadPool::hardwareWorkers();
    harness::RunRecord record = harness::RunRecord::start(
        "ext_fleet",
        strFormat("ext_fleet;dies=4;patterns=3;sweep=15;workers={}",
                  workers));
    std::printf("# Extension: parallel fleet campaigns (4 dies x 3 "
                "patterns, %zu workers)\n\n",
                workers);

    const std::string cache_dir = "results/fleet_cache";
    std::filesystem::remove_all(cache_dir);
    harness::FvmCache cache(cache_dir);

    harness::Campaign campaign =
        harness::Campaign::onDevices(
            {"VC707", "ZC702", "KC705-A", "KC705-B"})
            .withPatterns({harness::PatternSpec::allOnes(),
                           harness::PatternSpec::fixed(0xAAAA),
                           harness::PatternSpec::fixed(0x0000)})
            .sweep(15)
            .cacheInto(cache);

    // --- (a) serial vs pooled wall-clock ---------------------------------
    auto serial_start = std::chrono::steady_clock::now();
    const harness::FleetResult serial = campaign.run().orFatal();
    const double serial_ms = study::msSince(serial_start);

    ThreadPool pool(workers);
    auto parallel_start = std::chrono::steady_clock::now();
    const harness::FleetResult parallel = campaign.run(pool).orFatal();
    const double parallel_ms = study::msSince(parallel_start);

    // --- (b) determinism across schedules --------------------------------
    const bool identical = study::sameFleet(serial, parallel);

    TextTable table({"engine", "jobs", "wall-clock (ms)", "speedup",
                     "bit-identical"});
    table.addRow({"serial (0 workers)",
                  std::to_string(serial.jobs.size()),
                  fmtDouble(serial_ms, 1), "1.0x", "reference"});
    table.addRow({strFormat("pool ({} workers)", workers),
                  std::to_string(parallel.jobs.size()),
                  fmtDouble(parallel_ms, 1),
                  strFormat("{:.2f}x", serial_ms / parallel_ms),
                  identical ? "yes" : "NO"});
    table.print(std::cout);
    writeCsv(table, "results/ext_fleet.csv");

    std::printf("\nper-die fault rates at Vcrash (reference pattern "
                "16'hFFFF):\n");
    for (const auto &die : parallel.dies) {
        std::printf("  %-8s (die %s): %8.1f faults/Mbit, %zu sweeps, "
                    "merged FVM %.1f%% fault-free\n",
                    die.platform.c_str(), die.dieId.c_str(),
                    die.faultsPerMbitAtVcrash, die.jobIndices.size(),
                    die.mergedFvm->faultFreeFraction() * 100.0);
    }
    std::printf("die-to-die variation (worst/best): %.1fx; twin boards "
                "KC705-A / KC705-B = %.1fx (paper Fig 7: 4.1x)\n",
                parallel.dieToDieRatio(),
                parallel.die("KC705-A").faultsPerMbitAtVcrash /
                    parallel.die("KC705-B").faultsPerMbitAtVcrash);

    // --- (c) FvmCache traffic --------------------------------------------
    // The fleet published each die's merged FVM; a consumer obtaining a
    // map now skips the characterization sweep entirely. The traffic is
    // read from the telemetry registry's fvmcache.* counters (deltas per
    // phase), not the cache's own struct.
    std::printf("\nFvmCache (%s):\n", cache.directory().c_str());
    auto cache_counters = [] {
        const auto snapshot = telemetry::Registry::global().metrics();
        return std::array<std::uint64_t, 4>{
            snapshot.counter("fvmcache.memory_hits"),
            snapshot.counter("fvmcache.disk_hits"),
            snapshot.counter("fvmcache.single_flight_waits"),
            snapshot.counter("fvmcache.misses")};
    };
    TextTable cache_table({"phase", "wall-clock (ms)", "memory hits",
                           "disk hits", "waits", "characterized",
                           "hit rate"});
    auto obtain_all = [&](const char *label) {
        const auto before = cache_counters();
        const auto start = std::chrono::steady_clock::now();
        for (const auto &die : parallel.dies) {
            const auto &spec = fpga::findPlatform(die.platform);
            cache
                .obtain(spec, harness::PatternSpec::allOnes(), 15,
                        [&]() -> Expected<harness::Fvm> {
                            // A real consumer would re-run the die's
                            // characterization campaign here.
                            return harness::Campaign::onPlatform(
                                       die.platform)
                                .sweep(15)
                                .run()
                                .orFatal()
                                .dies.front()
                                .mergedFvm.value();
                        })
                .orFatal();
        }
        const double ms = study::msSince(start);
        const auto after = cache_counters();
        const std::uint64_t mem = after[0] - before[0];
        const std::uint64_t disk = after[1] - before[1];
        const std::uint64_t waits = after[2] - before[2];
        const std::uint64_t misses = after[3] - before[3];
        const std::uint64_t served = mem + disk + waits;
        const double rate = served + misses
            ? static_cast<double>(served) /
                  static_cast<double>(served + misses)
            : 0.0;
        cache_table.addRow({label, fmtDouble(ms, 1),
                            std::to_string(mem), std::to_string(disk),
                            std::to_string(waits),
                            std::to_string(misses),
                            strFormat("{:.0f}%", rate * 100.0)});
    };
    obtain_all("warm (memory)");
    cache.evictMemory();
    obtain_all("warm (disk only)");
    cache_table.print(std::cout);
    writeCsv(cache_table, "results/ext_fleet_cache.csv");

    // --- (d) observability artifacts -------------------------------------
    const auto events = telemetry::Registry::global().traceEvents();
    const harness::Profile profile = harness::foldSpans(events);
    harness::writeChromeTrace(
        events, "results/ext_fleet_trace.json",
        telemetry::Registry::global().threadNames());
    const auto snapshot = telemetry::Registry::global().metrics();
    harness::writePrometheus(snapshot, "results/ext_fleet_metrics.prom");
    const double profile_ms =
        static_cast<double>(profile.totalNs()) / 1e6;
    harness::writeFolded(profile, "results/profile_ext_fleet.folded");
    harness::writeFlameGraph(
        profile,
        strFormat("ext_fleet — {} spans, {:.1f} ms", profile.spans,
                  profile_ms),
        "results/profile_ext_fleet.html");
    std::printf("\ntelemetry: %zu spans -> results/ext_fleet_trace.json "
                "(open in ui.perfetto.dev); metrics snapshot -> "
                "results/ext_fleet_metrics.prom\n",
                events.size());
    std::printf("profile: %llu scoped spans, %.1f ms (%zu stacks) -> "
                "results/profile_ext_fleet.{folded,html}\n",
                static_cast<unsigned long long>(profile.spans),
                profile_ms, profile.folded.size());
    for (const auto &frame : profile.topFrames(5)) {
        std::printf("  %-24s self %10.3f ms  total %10.3f ms\n",
                    frame.name.c_str(),
                    static_cast<double>(frame.self) / 1e6,
                    static_cast<double>(frame.total) / 1e6);
    }

    // --- run record ------------------------------------------------------
    record.workers = workers;
    record.durationMs = study::msSince(run_start);
    record.metrics = {{"serial_ms", serial_ms},
                      {"parallel_ms", parallel_ms},
                      {"speedup", serial_ms / parallel_ms}};
    for (const auto &frame : profile.topFrames(SIZE_MAX))
        record.metrics.emplace_back(frame.name + ".self_ms",
                                    static_cast<double>(frame.self) / 1e6);
    study::appendRecord(record, harness::defaultTimelinePath());
    std::printf("  pmbus: %llu setpoint writes (%llu retried), link "
                "retransmits %llu; fleet: %llu jobs, cache hit rate "
                "above\n",
                static_cast<unsigned long long>(
                    snapshot.counter("pmbus.setpoint.writes")),
                static_cast<unsigned long long>(
                    snapshot.counter("pmbus.setpoint.retries")),
                static_cast<unsigned long long>(
                    snapshot.counter("pmbus.link.retransmits")),
                static_cast<unsigned long long>(
                    snapshot.counter("fleet.jobs")));

    std::printf("\nshape: the pooled fleet must report >= 3x speedup on "
                ">= 4 cores with\nbit-identical sweeps, and the warm "
                "cache must serve every die without a\nsingle "
                "characterization sweep\n");
    // The speedup is a measurement (table, CSV, run record), not a
    // verdict: a busy host may run the pool slower than the serial run.
    telemetry::Telemetry::setEnabled(telemetry_on);
    return identical ? 0 : 1;
}
