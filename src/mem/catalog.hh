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
 * Build the device behind a catalog name. BRAM backends alias the
 * process-wide pmbus::sharedChipModel personality; HBM/SRAM backends
 * synthesize their (cheap) weak-element maps from the spec serial.
 */
std::unique_ptr<MemoryDevice> makeDevice(const std::string &name);

} // namespace uvolt::mem

#endif // UVOLT_MEM_CATALOG_HH
