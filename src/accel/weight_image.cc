#include "accel/weight_image.hh"

#include "fpga/bram.hh"
#include "util/logging.hh"

namespace uvolt::accel
{

WeightImage::WeightImage(const nn::QuantizedModel &model)
{
    static_assert(weightsPerBram == fpga::bramRows,
                  "one weight word per BRAM row");
    constexpr std::size_t bram_words = fpga::bramWords;
    constexpr std::size_t rows_per_word = fpga::bramRowsPerWord;

    auto body = std::make_shared<Body>();
    body->model = model;
    for (std::size_t l = 0; l < model.layers.size(); ++l) {
        LayerSpan span;
        span.layer = static_cast<int>(l);
        span.firstLogicalBram = body->bramCount;
        span.weightCount = model.layers[l].weights.size();
        span.bramCount = static_cast<std::uint32_t>(
            (span.weightCount + weightsPerBram - 1) / weightsPerBram);
        body->bramCount += span.bramCount;
        body->spans.push_back(span);
    }

    // Row r of a layer lands in lane r % 4 of its word r / 4, so a
    // layer's BRAMs are its weights packed back to back; the tail of
    // its last BRAM stays zero.
    body->words.assign(body->bramCount * bram_words, 0);
    for (const LayerSpan &span : body->spans) {
        const auto &weights =
            model.layers[static_cast<std::size_t>(span.layer)].weights;
        std::uint64_t *words =
            body->words.data() + span.firstLogicalBram * bram_words;
        for (std::size_t r = 0; r < weights.size(); ++r) {
            words[r / rows_per_word] |=
                static_cast<std::uint64_t>(weights[r])
                << ((r % rows_per_word) * fpga::bramCols);
        }
    }
    body_ = std::move(body);
}

fpga::WordSpan
WeightImage::wordsOf(std::uint32_t logical_bram) const
{
    if (logical_bram >= body_->bramCount)
        fatal("wordsOf: logical BRAM {} out of {}", logical_bram,
              body_->bramCount);
    return {body_->words.data() +
                static_cast<std::size_t>(logical_bram) * fpga::bramWords,
            static_cast<std::size_t>(fpga::bramWords)};
}

nn::QuantizedModel
WeightImage::decode(
    const std::vector<std::vector<std::uint64_t>> &observed) const
{
    if (observed.size() != body_->bramCount)
        fatal("decode: {} BRAM readbacks for an image of {}",
              observed.size(), body_->bramCount);

    nn::QuantizedModel result = body_->model;
    for (const auto &span : body_->spans) {
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
