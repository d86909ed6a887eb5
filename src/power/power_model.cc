#include "power/power_model.hh"

#include <cmath>

#include "util/logging.hh"

namespace uvolt::power
{

RailPowerModel::RailPowerModel(const fpga::PlatformSpec &spec)
    : vnom_(spec.vnomMv / 1000.0),
      pnom_(spec.calib.bramPowerNomW),
      dynamicFraction_(spec.calib.dynamicFraction),
      leakageSlope_(spec.calib.leakageSlope)
{
}

double
RailPowerModel::relativePower(double volts) const
{
    if (volts < 0.0)
        fatal("relativePower: negative voltage {}", volts);
    const double ratio = volts / vnom_;
    const double dynamic = dynamicFraction_ * ratio * ratio;
    const double leakage =
        (1.0 - dynamicFraction_) * std::exp(-leakageSlope_ * (vnom_ - volts));
    return dynamic + leakage;
}

double
RailPowerModel::bramPower(double volts) const
{
    return pnom_ * relativePower(volts);
}

double
RailPowerModel::savingVs(double volts, double reference_volts) const
{
    return 1.0 - relativePower(volts) / relativePower(reference_volts);
}

OnChipBreakdown::OnChipBreakdown(const fpga::PlatformSpec &spec,
                                 double bram_utilization,
                                 double bram_share_at_nominal)
    : rail_(spec), vnom_(spec.vnomMv / 1000.0)
{
    if (bram_utilization <= 0.0 || bram_utilization > 1.0)
        fatal("BRAM utilization {} outside (0, 1]", bram_utilization);
    if (bram_share_at_nominal <= 0.0 || bram_share_at_nominal >= 1.0)
        fatal("BRAM power share {} outside (0, 1)", bram_share_at_nominal);

    designBramNomW_ = spec.calib.bramPowerNomW * bram_utilization;
    restW_ = designBramNomW_ *
        (1.0 - bram_share_at_nominal) / bram_share_at_nominal;
}

PowerBreakdown
OnChipBreakdown::at(double volts) const
{
    PowerBreakdown result;
    result.bramW = designBramNomW_ * rail_.relativePower(volts);
    result.restW = restW_;
    result.totalW = result.bramW + result.restW;
    return result;
}

double
OnChipBreakdown::totalSaving(double volts) const
{
    const double nominal = at(vnom_).totalW;
    return 1.0 - at(volts).totalW / nominal;
}

OnChipBreakdown
OnChipBreakdown::nnDesign(const fpga::PlatformSpec &spec)
{
    // Table III: the NN fills 70.8% of VC707's BRAMs; the BRAM share of
    // the design's on-chip power at nominal is the value that makes the
    // >10x BRAM rail reduction at Vmin equal the paper's 24.1% total
    // on-chip saving (Fig 10).
    return OnChipBreakdown(spec, 0.708, 0.2555);
}

} // namespace uvolt::power
