#include "vmodel/process_variation.hh"

#include <algorithm>
#include <cmath>

#include "fpga/bram.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace uvolt::vmodel
{

namespace
{

/** Log-normal shape of the per-BRAM vulnerability (heavy tail). */
constexpr double sigmaLn = 1.6;

} // namespace

std::vector<double>
latentField(const fpga::PlatformSpec &spec, const fpga::Floorplan &floorplan,
            const VariationParams &params)
{
    const double corr = std::max(1.0, spec.calib.spatialCorrLength);
    const int grid_w =
        static_cast<int>(std::ceil(floorplan.width() / corr)) + 2;
    const int grid_h =
        static_cast<int>(std::ceil(floorplan.height() / corr)) + 2;

    // Independent anchors on a coarse grid; the smooth component of the
    // field is their bilinear interpolation.
    Rng anchor_rng(combineSeeds(hashSeed(spec.serialNumber),
                                hashSeed("within-die-field")));
    std::vector<double> anchors(static_cast<std::size_t>(grid_w) *
                                static_cast<std::size_t>(grid_h));
    for (auto &a : anchors)
        a = anchor_rng.gaussian();

    auto anchor = [&](int gx, int gy) {
        return anchors[static_cast<std::size_t>(gx) *
                       static_cast<std::size_t>(grid_h) +
                       static_cast<std::size_t>(gy)];
    };

    Rng cell_rng(combineSeeds(hashSeed(spec.serialNumber),
                              hashSeed("per-bram-noise")));
    const double w_smooth = std::sqrt(params.spatialWeight);
    const double w_noise = std::sqrt(1.0 - params.spatialWeight);

    std::vector<double> field(floorplan.bramCount());
    for (std::uint32_t b = 0; b < floorplan.bramCount(); ++b) {
        const fpga::Site site = floorplan.siteOf(b);
        const double u = site.x / corr;
        const double v = site.y / corr;
        const int gx = static_cast<int>(u);
        const int gy = static_cast<int>(v);
        const double fx = u - gx;
        const double fy = v - gy;
        const double smooth =
            anchor(gx, gy) * (1 - fx) * (1 - fy) +
            anchor(gx + 1, gy) * fx * (1 - fy) +
            anchor(gx, gy + 1) * (1 - fx) * fy +
            anchor(gx + 1, gy + 1) * fx * fy;
        field[b] = w_smooth * smooth + w_noise * cell_rng.gaussian();
    }
    return field;
}

std::vector<double>
bramVulnerability(const fpga::PlatformSpec &spec,
                  const fpga::Floorplan &floorplan,
                  const VariationParams &params)
{
    const std::vector<double> field = latentField(spec, floorplan, params);
    const std::uint32_t count = floorplan.bramCount();

    std::vector<double> raw(count);
    for (std::uint32_t b = 0; b < count; ++b)
        raw[b] = std::exp(sigmaLn * field[b]);

    // Zero out the least-vulnerable quantile: those BRAMs never fault,
    // even at Vcrash (38.9% of them on VC707).
    const auto zero_count = static_cast<std::size_t>(
        spec.calib.neverFaultyFraction * count);
    if (zero_count > 0) {
        std::vector<double> sorted(raw);
        std::nth_element(sorted.begin(), sorted.begin() + (zero_count - 1),
                         sorted.end());
        const double cutoff = sorted[zero_count - 1];
        std::size_t zeroed = 0;
        for (auto &value : raw) {
            if (value <= cutoff && zeroed < zero_count) {
                value = 0.0;
                ++zeroed;
            }
        }
    }

    const double total = spec.expectedFaultsAtVcrash();
    const double max_count =
        spec.calib.maxBramFaultRate * static_cast<double>(fpga::bramBits);

    double raw_sum = 0.0;
    std::size_t nonzero = 0;
    for (double value : raw) {
        raw_sum += value;
        if (value > 0.0)
            ++nonzero;
    }
    if (raw_sum <= 0.0 || max_count * static_cast<double>(nonzero) < total)
        panic("vulnerability calibration infeasible for {}", spec.name);

    // Fixed-point iteration: scale the uncapped mass until the capped sum
    // hits the calibrated total.
    double scale = total / raw_sum;
    std::vector<double> lambda(count);
    for (int iter = 0; iter < 60; ++iter) {
        double sum = 0.0;
        for (std::uint32_t b = 0; b < count; ++b) {
            lambda[b] = std::min(raw[b] * scale, max_count);
            sum += lambda[b];
        }
        const double error = total / sum;
        if (std::abs(error - 1.0) < 1e-9)
            break;
        scale *= error;
    }
    return lambda;
}

} // namespace uvolt::vmodel
