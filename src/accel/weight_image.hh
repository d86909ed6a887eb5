/**
 * @file
 * Mapping of quantized NN weights onto logical BRAMs.
 *
 * The accelerator stores every 16-bit weight word in BRAM (Table III:
 * ~1.5 M weights fill 70.8% of VC707's 2060 BRAMs). Weights are laid out
 * layer by layer, each layer starting on a fresh BRAM so a layer's
 * protection domain is a whole number of BRAMs; with the paper's
 * topology the last layer (Layer4) occupies exactly 2 BRAMs, the unit
 * ICBP protects. One BRAM row (16 bits) holds one weight word, so a
 * 1024-row BRAM holds 1024 weights.
 */

#ifndef UVOLT_ACCEL_WEIGHT_IMAGE_HH
#define UVOLT_ACCEL_WEIGHT_IMAGE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fpga/fault_domain.hh"
#include "nn/quantizer.hh"

namespace uvolt::accel
{

/** Weights per BRAM: one 16-bit word per row. */
constexpr std::uint32_t weightsPerBram = 1024;

/** The logical BRAMs of one NN layer. */
struct LayerSpan
{
    int layer = 0;
    std::uint32_t firstLogicalBram = 0;
    std::uint32_t bramCount = 0;
    std::size_t weightCount = 0;
};

/**
 * The BRAM initialization image of a quantized model. An image never
 * changes once built, so copies share one immutable body: handing an
 * image to each Accelerator or MitigationLab copies a pointer, not the
 * model and its packed words.
 */
class WeightImage
{
  public:
    explicit WeightImage(const nn::QuantizedModel &model);

    const nn::QuantizedModel &model() const { return body_->model; }

    /** Logical BRAMs the image occupies. */
    std::uint32_t logicalBramCount() const { return body_->bramCount; }

    /** Per-layer extents, in layer order. */
    const std::vector<LayerSpan> &layerSpans() const
    {
        return body_->spans;
    }

    /**
     * Packed contents of one logical BRAM (zero-padded tail): the
     * fault-domain words programmed into the block, ready for
     * Bram::assignWords() or diffPopcount() against a packed readback.
     * The span views the image's own storage.
     */
    fpga::WordSpan wordsOf(std::uint32_t logical_bram) const;

    /**
     * Rebuild a quantized model from observed packed per-logical-BRAM
     * contents (the readback path: formats/biases are carried over from
     * the original model; only weight words are replaced). Weight words
     * are row lanes of the fault-domain words, extracted with
     * fpga::rowOfWords instead of a per-row copy loop.
     */
    nn::QuantizedModel
    decode(const std::vector<std::vector<std::uint64_t>> &observed) const;

    /** Utilization of a device pool of the given size (e.g. 70.8%). */
    double utilizationOf(std::uint32_t device_bram_count) const;

  private:
    struct Body
    {
        nn::QuantizedModel model;
        std::vector<LayerSpan> spans;
        std::uint32_t bramCount = 0;
        /** Packed words, fpga::bramWords per logical BRAM, in order. */
        std::vector<std::uint64_t> words;
    };
    std::shared_ptr<const Body> body_;
};

} // namespace uvolt::accel

#endif // UVOLT_ACCEL_WEIGHT_IMAGE_HH
