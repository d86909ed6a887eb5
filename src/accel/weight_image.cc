#include "accel/weight_image.hh"

#include "fpga/bram.hh"
#include "util/logging.hh"

namespace uvolt::accel
{

WeightImage::WeightImage(const nn::QuantizedModel &model) : model_(model)
{
    static_assert(weightsPerBram == fpga::bramRows,
                  "one weight word per BRAM row");

    // Sized up front: regrowing the outer vector, which holds every
    // BRAM's words, leaves holes in the heap of a process that builds
    // one image per operating point, and its peak RSS creeps up.
    std::size_t brams = 0;
    for (const auto &layer : model_.layers)
        brams += (layer.weights.size() + weightsPerBram - 1) / weightsPerBram;
    contents_.reserve(brams);
    for (std::size_t l = 0; l < model_.layers.size(); ++l) {
        const auto &layer = model_.layers[l];
        LayerSpan span;
        span.layer = static_cast<int>(l);
        span.firstLogicalBram = logicalBramCount();
        span.weightCount = layer.weights.size();
        span.bramCount = static_cast<std::uint32_t>(
            (layer.weights.size() + weightsPerBram - 1) / weightsPerBram);

        for (std::uint32_t b = 0; b < span.bramCount; ++b) {
            std::vector<std::uint16_t> rows(fpga::bramRows, 0);
            const std::size_t base =
                static_cast<std::size_t>(b) * weightsPerBram;
            const std::size_t take =
                std::min<std::size_t>(weightsPerBram,
                                      layer.weights.size() - base);
            for (std::size_t w = 0; w < take; ++w)
                rows[w] = layer.weights[base + w];
            contents_.push_back(fpga::packRows(rows));
        }
        spans_.push_back(span);
    }
}

const std::vector<std::uint64_t> &
WeightImage::wordsOf(std::uint32_t logical_bram) const
{
    if (logical_bram >= contents_.size())
        fatal("wordsOf: logical BRAM {} out of {}", logical_bram,
              contents_.size());
    return contents_[logical_bram];
}

nn::QuantizedModel
WeightImage::decode(
    const std::vector<std::vector<std::uint64_t>> &observed) const
{
    if (observed.size() != contents_.size())
        fatal("decode: {} BRAM readbacks for an image of {}",
              observed.size(), contents_.size());

    nn::QuantizedModel result = model_;
    for (const auto &span : spans_) {
        auto &layer = result.layers[static_cast<std::size_t>(span.layer)];
        for (std::uint32_t b = 0; b < span.bramCount; ++b) {
            const auto &words = observed[span.firstLogicalBram + b];
            if (words.size() != static_cast<std::size_t>(fpga::bramWords))
                fatal("decode: BRAM readback with {} packed words",
                      words.size());
            const std::size_t base =
                static_cast<std::size_t>(b) * weightsPerBram;
            const std::size_t take =
                std::min<std::size_t>(weightsPerBram,
                                      layer.weights.size() - base);
            for (std::size_t w = 0; w < take; ++w) {
                layer.weights[base + w] =
                    fpga::rowOfWords(words, static_cast<int>(w));
            }
        }
    }
    return result;
}

double
WeightImage::utilizationOf(std::uint32_t device_bram_count) const
{
    if (device_bram_count == 0)
        fatal("utilizationOf: empty device");
    return static_cast<double>(logicalBramCount()) /
        static_cast<double>(device_bram_count);
}

} // namespace uvolt::accel
