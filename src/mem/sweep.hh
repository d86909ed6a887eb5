/**
 * @file
 * Backend-generic critical-voltage sweep: the harness's sweep inner
 * loop (step the rail down, re-read under jitter runsPerLevel times,
 * take the median) expressed against MemoryDevice alone, so one fleet
 * run can sweep BRAM, HBM, and SRAM populations side by side.
 *
 * Determinism contract: the per-(level, run) jitter stream is STATELESS
 * — each draw seeds its own Rng from (sweep seed, rail mV, run index) —
 * so a point's result never depends on which points ran before it.
 * That makes sweeps bit-identical at any worker count, resumable from
 * any level, and sliceable by maxLevels without a checkpoint replay.
 */

#ifndef UVOLT_MEM_SWEEP_HH
#define UVOLT_MEM_SWEEP_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/memory_device.hh"

namespace uvolt::mem
{

/** Options of one device sweep. */
struct MemSweepOptions
{
    int runsPerLevel = 5;  ///< re-reads per level (median taken)
    int stepMv = 10;       ///< level spacing
    double ambientC = 50.0;
    std::uint64_t seed = 0; ///< jitter stream seed

    bool collectPerDomain = false;

    /** Slice: stop after this many levels (resume with resumeFromMv). */
    std::optional<int> maxLevels;
    /** Resume: skip levels above this (exclusive upper bound). */
    std::optional<int> resumeFromMv;
};

/** One voltage level of a device sweep. */
struct MemSweepPoint
{
    int railMv = 0;
    std::vector<std::uint64_t> runCounts; ///< per-run fault totals
    std::uint64_t medianFaults = 0;
    double faultsPerMbit = 0.0;
    double railPowerW = 0.0;
    std::vector<int> perDomainFaults; ///< zero-jitter; if collected
};

/** Full sweep of one device. */
struct MemSweepResult
{
    std::string device;     ///< catalog name
    std::string dieId;
    std::string technology; ///< technologyName() tag
    double ambientC = 50.0;
    int runsPerLevel = 0;
    std::vector<MemSweepPoint> points; ///< descending railMv
    bool truncated = false; ///< stopped by maxLevels, resume to continue
};

/**
 * Sweep @a device from one step above its Vmin down to its Vcrash. The
 * device content must already be programmed (fill / assignDomainWords);
 * readbacks never mutate it, so the device is taken const.
 */
MemSweepResult runMemSweep(const MemoryDevice &device,
                           const MemSweepOptions &options = {});

} // namespace uvolt::mem

#endif // UVOLT_MEM_SWEEP_HH
