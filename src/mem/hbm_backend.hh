/**
 * @file
 * HBM behind the MemoryDevice interface, after the undervolting
 * characterization of HBM2 stacks in arXiv:2101.00969: faults appear at
 * much coarser granularity than BRAM bitcells (a weak DRAM row misreads
 * as a unit, so one weak element masks a whole 16-bit lane), the stack
 * is organized as pseudo-channels x banks (our fault domains), reduced
 * voltage loses cell charge so faults skew strongly 1->0, and — unlike
 * BRAM's inverse thermal dependence — DRAM retention DEGRADES with
 * temperature, so the temperature coefficient has the opposite sign.
 * The measured ~2.3x power saving at the guardband edge fixes the power
 * constants.
 */

#ifndef UVOLT_MEM_HBM_BACKEND_HH
#define UVOLT_MEM_HBM_BACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/memory_device.hh"

namespace uvolt::mem
{

/** Catalog entry for one HBM stack. */
struct HbmSpec
{
    std::string name;    ///< e.g. "HBM2-A"
    std::string stackId; ///< stack serial; seeds the fault personality

    std::uint32_t pseudoChannels = 8;
    std::uint32_t banksPerChannel = 8;
    std::uint32_t rowsPerBank = 2048; ///< 16-bit lanes per bank

    int vnomMv = 1200;  ///< nominal HBM rail
    int vminMv = 980;   ///< guardband edge: lowest fault-free level
    int vcrashMv = 810; ///< stack stops responding below this

    double runJitterMv = 2.5;

    /** Mean weak rows per bank observable at Vcrash. */
    double weakRowsPerBankAtVcrash = 24.0;
    /** Share of weak rows failing 1->0 (charge loss dominates). */
    double oneToZeroShare = 0.95;
    /**
     * Effective-voltage shift per degC ABOVE the reference ambient;
     * positive values LOWER the effective voltage when hot (retention
     * degradation — the inverse of BRAM's ITD).
     */
    double retentionMvPerC = 0.8;

    double railPowerNomW = 6.2; ///< stack rail power at nominal
    double dynamicFraction = 0.55;
    double leakageSlope = 8.0; ///< 1/V, refresh+leakage voltage slope

    std::uint32_t bankCount() const
    {
        return pseudoChannels * banksPerChannel;
    }
};

/** Built-in HBM stacks (two dies of the same part, distinct serials). */
const std::vector<HbmSpec> &hbmCatalog();

/** Catalog lookup by name; nullptr when the name is not an HBM stack. */
const HbmSpec *findHbm(const std::string &name);

/** MemoryDevice traits of an HBM stack (no backend construction). */
DeviceTraits hbmDeviceTraits(const HbmSpec &spec);

/**
 * The fault personality of one HBM stack: its weak rows and their
 * per-bank threshold ladders. Immutable once built and a pure function
 * of the spec fields the synthesis reads (serial, geometry, envelope,
 * weak-row density, 1->0 share), so every HbmBackend of one stack
 * aliases a single instance (sharedHbmPersonality).
 */
struct HbmPersonality
{
    /** One weak DRAM row (the coarse fault element). */
    struct WeakRow
    {
        std::uint32_t row;
        bool oneToZero;
        float thresholdV;
    };

    /** Synthesize the stack's weak-row map: deterministic in the spec. */
    explicit HbmPersonality(const HbmSpec &spec);

    std::vector<std::vector<WeakRow>> rows; ///< per bank, sorted by row
    std::vector<vmodel::DomainLadders> ladders; ///< per bank
};

/** The personality of @a spec, synthesized once per process and shared
 *  (the pmbus::sharedChipModel rule). Thread-safe. */
std::shared_ptr<const HbmPersonality>
sharedHbmPersonality(const HbmSpec &spec);

/** One HBM stack as a MemoryDevice; domains are banks. */
class HbmBackend : public PlaneDevice
{
  public:
    /** Zeroed banks over the stack's shared personality. */
    explicit HbmBackend(const HbmSpec &spec);

    double effectiveVoltage(double rail_v, double temp_c,
                            double jitter_v = 0.0) const override;

    int countDomainFaultsReference(std::uint32_t domain,
                                   double effective_v) const override;
    const vmodel::DomainLadders &
    domainLadders(std::uint32_t domain) const override;
    double railPowerW(double rail_v) const override;

    std::unique_ptr<MemoryDevice> clone() const override;

    const HbmSpec &spec() const { return spec_; }
    const HbmPersonality &personality() const { return *personality_; }

  private:
    HbmBackend(const HbmBackend &) = default;

    HbmSpec spec_;
    std::shared_ptr<const HbmPersonality> personality_;
};

} // namespace uvolt::mem

#endif // UVOLT_MEM_HBM_BACKEND_HH
