/**
 * @file
 * FVM persistence.
 *
 * In the paper's flow the FVM is "extracted as a pre-process stage" and
 * later consumed by the compile-time ICBP constraint (Fig 12b): the
 * characterization campaign and the placement run are separate tool
 * invocations. These helpers serialize an Fvm to a small versioned text
 * format (CSV with a header line) so a chip characterized once can be
 * reused by any number of later builds.
 *
 * Format:
 *   #uvolt-fvm v1 <platform> <width> <height> <bramCount>
 *   x,y,faults                 (one line per occupied site)
 */

#ifndef UVOLT_HARNESS_FVM_IO_HH
#define UVOLT_HARNESS_FVM_IO_HH

#include <string>

#include "fpga/floorplan.hh"
#include "harness/fvm.hh"
#include "util/error.hh"

namespace uvolt::harness
{

/**
 * Write an FVM to a file, crash-atomically (a concurrent reader sees the
 * previous complete map or the new one). corruptCache on I/O failure.
 */
Expected<void> trySaveFvm(const Fvm &fvm, const fpga::Floorplan &floorplan,
                          const std::string &path);

/**
 * Load an FVM previously written by trySaveFvm(). cacheMiss when the
 * file does not exist; corruptCache when it exists but is malformed (a
 * header or row with anything left over counts) or belongs to a
 * different floorplan geometry — a map for a different chip/shape must
 * never be silently accepted. The FvmCache turns cacheMiss into a
 * characterization run and corruptCache into a re-characterize +
 * overwrite.
 */
Expected<Fvm> tryLoadFvm(const fpga::Floorplan &floorplan,
                         const std::string &path);

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_FVM_IO_HH
