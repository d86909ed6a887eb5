/**
 * @file
 * Vulnerability clustering of BRAMs (paper Section II-C.3, Fig 5).
 *
 * The paper clusters per-BRAM fault rates with k-means into low-, mid-,
 * and high-vulnerable classes; on VC707 at Vcrash, 88.6% of BRAMs land in
 * the low class with an average rate of 0.02% (~3.4 faults per 16 kbit
 * BRAM). The low class feeds the ICBP placement constraint.
 */

#ifndef UVOLT_HARNESS_CLUSTERER_HH
#define UVOLT_HARNESS_CLUSTERER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/fvm.hh"

namespace uvolt::harness
{

/** Vulnerability classes, ordered by centroid. */
enum class VulnClass : std::uint8_t
{
    Low = 0,
    Mid = 1,
    High = 2,
};

/** Printable class name. */
const char *vulnClassName(VulnClass cls);

/** Result of clustering one FVM. */
struct ClusterReport
{
    /** Per-BRAM class, indexed by pool index. */
    std::vector<VulnClass> classOf;

    /** BRAM count per class. */
    std::vector<std::size_t> sizes;

    /** Mean fault *rate* (fraction of bits) per class. */
    std::vector<double> meanRates;

    /** Mean fault *count* per BRAM per class. */
    std::vector<double> meanCounts;

    /** Fraction of the pool in a class. */
    double shareOf(VulnClass cls) const;

    /** Pool indices of the low-vulnerable BRAMs, most reliable first. */
    std::vector<std::uint32_t> lowVulnerableBrams;
};

/**
 * Cluster an FVM's per-BRAM fault rates into the paper's three
 * vulnerability classes using 1-D k-means.
 */
ClusterReport clusterBrams(const Fvm &fvm);

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_CLUSTERER_HH
