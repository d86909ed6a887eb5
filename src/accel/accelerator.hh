/**
 * @file
 * The BRAM-backed NN accelerator under reduced-voltage operation
 * (paper Section III).
 *
 * Weights live in the device's BRAMs; inputs stream from off-chip (here:
 * a Dataset); matrix-multiply plus logsig runs on DSPs/LUTs fed from
 * VCCINT, which stays at nominal. When VCCBRAM drops below Vmin, weight
 * reads suffer the chip's deterministic faults, which is exactly what
 * this class reproduces: it programs the image through a Placement,
 * reads it back through the board's fault model at the current
 * conditions, and evaluates classification error with the surviving
 * weights.
 */

#ifndef UVOLT_ACCEL_ACCELERATOR_HH
#define UVOLT_ACCEL_ACCELERATOR_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "data/dataset.hh"
#include "nn/network.hh"
#include "pmbus/board.hh"

namespace uvolt::accel
{

/**
 * Read one physical BRAM (packed), recovering spurious crashes like the
 * harness watchdog. After each crashDetected the board is reconfigured,
 * @a restore rewrites the storage reconfiguration brings back with the
 * bitstream (and bumps the caller's recovery counters), and the read
 * re-enters at the original operating point and supply jitter, so the
 * recovered read equals the undisturbed one. Any other error, or 16
 * crashes in a row, is fatal.
 */
std::vector<std::uint64_t>
readBramRecovering(pmbus::Board &board, std::uint32_t physical,
                   const std::function<void()> &restore);

/** Per-layer weight-bit fault counts at one operating point. */
struct WeightFaultReport
{
    std::vector<std::uint64_t> faultsPerLayer;
    std::uint64_t total = 0;
};

/** The deployed accelerator. */
class Accelerator
{
  public:
    /**
     * Program @a image onto @a board through @a placement.
     * fatal() if the placement does not fit the device.
     */
    Accelerator(pmbus::Board &board, WeightImage image,
                Placement placement);

    const WeightImage &image() const { return image_; }
    const Placement &placement() const { return placement_; }

    /**
     * Re-write the BRAM contents (e.g. after a soft reset, or after
     * something else wrote to the device's BRAMs). Also drops the
     * decoded-observation cache, since cached readbacks no longer
     * describe what the device holds.
     */
    void program();

    /**
     * Read every weight BRAM back under the board's present
     * voltage/temperature/jitter and rebuild the quantized model the
     * datapath would see.
     *
     * Readbacks are served from a decoded-observation cache keyed on
     * the operating point (commanded VCCBRAM plus the effective bitcell
     * voltage, which folds in temperature and run jitter — i.e. the
     * fault dose). A repeat call at an unchanged operating point reuses
     * the previous decode; any change of the dose, or a program(),
     * invalidates it and forces a fresh readback.
     */
    nn::QuantizedModel observedModel() const;

    /** Float network decoded from observedModel() (same cache). */
    nn::Network observedNetwork() const;

    /**
     * Count weight-bit faults per layer at the present conditions.
     * Served from the same observation cache as observedModel(), so a
     * weightFaults() + classificationError() pair at one operating
     * point costs a single device readback.
     */
    WeightFaultReport weightFaults() const;

    /**
     * Classification error with the present (possibly faulty) weights,
     * evaluated by the batched engine with default options.
     * @param limit evaluate only the first @a limit samples; 0 and
     * limit > set size both mean the whole set (see
     * nn::Network::evaluateError)
     */
    double classificationError(const data::Dataset &test_set,
                               std::size_t limit = 0) const;

    /**
     * Classification error with explicit evaluation options (limit,
     * worker pool). Bit-identical to the default overload at any
     * worker count.
     */
    double classificationError(const data::Dataset &test_set,
                               const nn::EvalOptions &options) const;

    /**
     * Spurious DONE-low events survived during readback: each one cost
     * a reconfiguration (weight re-program) plus a setpoint restore.
     */
    std::uint64_t crashRecoveries() const { return crashRecoveries_; }

    /** Cache hits served without a device readback (observability). */
    std::uint64_t observationCacheHits() const { return cacheHits_; }

  private:
    /** One decoded readback and the operating point that produced it. */
    struct Observation
    {
        int vccBramMv;            ///< commanded setpoint
        double effectiveVoltage;  ///< dose: folds temp + jitter
        std::uint64_t generation; ///< program() epoch
        std::vector<std::vector<std::uint64_t>> words; ///< packed readback
        nn::QuantizedModel model; ///< decoded from words
        nn::Network network;      ///< model.toNetwork()
    };

    /** Re-write the weight image (reconfiguration restores it). */
    void restoreImage() const;

    /** The cached observation at the current dose (refreshed on miss). */
    const Observation &observed() const;

    pmbus::Board &board_;
    WeightImage image_;
    Placement placement_;
    mutable std::uint64_t crashRecoveries_ = 0;
    mutable std::uint64_t programGeneration_ = 0;
    mutable std::uint64_t cacheHits_ = 0;
    mutable std::optional<Observation> cache_;
};

} // namespace uvolt::accel

#endif // UVOLT_ACCEL_ACCELERATOR_HH
