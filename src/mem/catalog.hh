/**
 * @file
 * Name-based resolution of memory devices across every technology
 * catalog: the seam that lets FleetEngine, the server, and the CLI keep
 * addressing devices by plain name ("VC707", "HBM2-A", "MORS-SRAM-A")
 * while the backend behind the name varies.
 */

#ifndef UVOLT_MEM_CATALOG_HH
#define UVOLT_MEM_CATALOG_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/memory_device.hh"

namespace uvolt::mem
{

/**
 * Technology behind a catalog name. The HBM and SRAM catalogs are
 * probed first; any other name is treated as an FPGA platform (and
 * fatal()s inside fpga::findPlatform if unknown there too) — so every
 * pre-existing fleet plan resolves to BRAM exactly as before.
 */
Technology technologyOfName(const std::string &name);

/** Whether the name resolves in any catalog (no fatal on unknown). */
bool knownDevice(const std::string &name);

/**
 * Traits of the device behind a name WITHOUT building the backend: no
 * weak-element synthesis, no chip-model lookup. What aggregation code
 * (floorplans, cache keys, manifests) should use.
 */
DeviceTraits traitsOfName(const std::string &name);

/**
 * Build the device behind a catalog name: zeroed content over the die's
 * fault personality. Every technology follows one rule — the
 * personality (BRAM chip model, HBM weak rows, MoRS weak cells, with
 * their ladders) is immutable, synthesized once per process from the
 * spec serial and aliased by every device of that die
 * (pmbus::sharedChipModel, sharedHbmPersonality, sharedSramPersonality);
 * the content planes, epoch and count index are the device's own.
 * Synthesis is not cheap: on a 4-vCPU Xeon, makeDevice plus one fill
 * took 0.44 ms (HBM2-A) and 2.55 ms (MORS-SRAM-A) when every call
 * synthesized, and takes ~0.02 ms over a warm personality (bench_all
 * BM_MakeDeviceHbm / BM_MakeDeviceSram).
 */
std::unique_ptr<MemoryDevice> makeDevice(const std::string &name);

/**
 * Synthesize the personality behind a catalog name, once per process,
 * without building a device: called before fanning work out, so
 * workers alias it instead of queueing on the synthesis lock.
 */
void warmPersonality(const std::string &name);

} // namespace uvolt::mem

#endif // UVOLT_MEM_CATALOG_HH
