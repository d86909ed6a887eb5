/**
 * @file
 * The study registry of uvolt_bench. Every .cc file of bench/ but
 * main.cc is one named study (a paper figure or table, an extension
 * study, or a tool), and main.cc runs studies by name.
 */

#ifndef UVOLT_BENCH_STUDY_HH
#define UVOLT_BENCH_STUDY_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "harness/fleet.hh"
#include "harness/run_record.hh"
#include "util/cli.hh"

namespace uvolt::study
{

/** Declares a study's flags on the parser the runner hands it. */
using FlagsFn = void (*)(CliParser &cli);
/** Runs a study on its parsed flags; returns its exit code. */
using RunFn = int (*)(const CliParser &cli);

/** Adds a study to the registry during static initialization. */
struct Registrar
{
    Registrar(const char *name, RunFn run, FlagsFn flags = nullptr);
};

/** Wall-clock milliseconds since @a start. */
inline double
msSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Whether two sweeps measured the same points, run by run. */
inline bool
sameSweep(const harness::SweepResult &a, const harness::SweepResult &b)
{
    return std::equal(
        a.points.begin(), a.points.end(), b.points.begin(), b.points.end(),
        [](const harness::SweepPoint &p, const harness::SweepPoint &q) {
            return p.vccBramMv == q.vccBramMv &&
                p.runCounts == q.runCounts &&
                p.medianFaults == q.medianFaults &&
                p.perBramFaults == q.perBramFaults;
        });
}

/** Whether two fleet runs measured the same sweeps, job by job. */
inline bool
sameFleet(const harness::FleetResult &a, const harness::FleetResult &b)
{
    return std::equal(a.jobs.begin(), a.jobs.end(), b.jobs.begin(),
                      b.jobs.end(), [](const auto &p, const auto &q) {
                          return sameSweep(p.sweep, q.sweep);
                      });
}

/**
 * Append @a record to the run-record file at @a path ("" appends
 * nothing) and say where on stdout.
 */
inline void
appendRecord(const harness::RunRecord &record, const std::string &path)
{
    if (path.empty())
        return;
    if (auto appended = record.append(path); !appended.ok())
        std::fprintf(stderr, "run record: %s\n",
                     appended.error().message.c_str());
    else
        std::printf("run record: appended run %s -> %s\n",
                    record.runId.c_str(), path.c_str());
}

} // namespace uvolt::study

/**
 * Registers the study @a name and opens its body, which reads its
 * parsed flags from `cli`. The optional second argument is the FlagsFn
 * that declares them; the runner parses the study's arguments first.
 */
#define UVOLT_STUDY(name, ...)                                          \
    static int name##Study(const ::uvolt::CliParser &cli);              \
    static const ::uvolt::study::Registrar name##Registrar(             \
        #name, name##Study __VA_OPT__(, ) __VA_ARGS__);                 \
    static int name##Study([[maybe_unused]] const ::uvolt::CliParser &cli)

#endif // UVOLT_BENCH_STUDY_HH
