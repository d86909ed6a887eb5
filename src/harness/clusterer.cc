#include "harness/clusterer.hh"

#include <algorithm>

#include "fpga/bram.hh"
#include "util/kmeans.hh"
#include "util/logging.hh"

namespace uvolt::harness
{

const char *
vulnClassName(VulnClass cls)
{
    switch (cls) {
      case VulnClass::Low:
        return "low-vulnerable";
      case VulnClass::Mid:
        return "mid-vulnerable";
      case VulnClass::High:
        return "high-vulnerable";
    }
    panic("vulnClassName: invalid class");
}

double
ClusterReport::shareOf(VulnClass cls) const
{
    const auto index = static_cast<std::size_t>(cls);
    if (index >= sizes.size())
        return 0.0;
    std::size_t total = 0;
    for (std::size_t size : sizes)
        total += size;
    return total == 0
        ? 0.0
        : static_cast<double>(sizes[index]) / static_cast<double>(total);
}

ClusterReport
clusterBrams(const Fvm &fvm)
{
    // One class per VulnClass: low, mid and high.
    constexpr std::size_t k = 3;

    std::vector<double> rates(fvm.bramCount());
    for (std::uint32_t b = 0; b < fvm.bramCount(); ++b)
        rates[b] = fvm.rateOf(b);

    const KMeansResult clusters = kMeans1d(rates, k);

    ClusterReport report;
    report.classOf.resize(fvm.bramCount());
    report.sizes.assign(k, 0);
    report.meanRates.assign(k, 0.0);
    report.meanCounts.assign(k, 0.0);

    for (std::uint32_t b = 0; b < fvm.bramCount(); ++b) {
        const std::size_t cls = clusters.assignment[b];
        report.classOf[b] = static_cast<VulnClass>(cls);
        ++report.sizes[cls];
        report.meanRates[cls] += rates[b];
        report.meanCounts[cls] += static_cast<double>(fvm.faultsOf(b));
    }
    for (std::size_t cls = 0; cls < k; ++cls) {
        if (report.sizes[cls] > 0) {
            report.meanRates[cls] /= static_cast<double>(report.sizes[cls]);
            report.meanCounts[cls] /=
                static_cast<double>(report.sizes[cls]);
        }
    }

    // Low-vulnerable pool in reliability order (zero-fault BRAMs first).
    for (std::uint32_t b : fvm.bramsByReliability()) {
        if (report.classOf[b] == VulnClass::Low)
            report.lowVulnerableBrams.push_back(b);
    }
    return report;
}

} // namespace uvolt::harness
