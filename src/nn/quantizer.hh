/**
 * @file
 * Per-layer minimum-precision fixed-point quantization (paper Fig 9 and
 * Table III). Every weight becomes a 16-bit sign-magnitude word; each
 * layer gets the smallest digit (integer) field that represents its
 * largest weight, with the remaining bits spent on fraction. On the
 * paper's trained baseline only the last layer needs digit bits.
 */

#ifndef UVOLT_NN_QUANTIZER_HH
#define UVOLT_NN_QUANTIZER_HH

#include <vector>

#include "fxp/fixed_point.hh"
#include "nn/network.hh"

namespace uvolt::nn
{

/** One layer's quantized weights. */
struct QuantizedLayer
{
    int inputs = 0;
    int outputs = 0;
    fxp::QFormat format;             ///< the layer's minimum precision
    std::vector<fxp::Word> weights;  ///< row-major, outputs x inputs
    std::vector<float> biases;       ///< biases stay in the datapath

    /** Fraction of "0" bits across this layer's weight words. */
    double zeroBitFraction() const;
};

/** The whole quantized model. */
struct QuantizedModel
{
    std::vector<int> layerSizes;
    std::vector<QuantizedLayer> layers;

    /** Total weight words (== total weights). */
    std::size_t totalWeights() const;

    /**
     * Fraction of "0" bits across all weight words; the paper measures
     * 76.3% for its MNIST baseline, the source of the NN's inherent
     * resilience to "1"->"0" undervolting flips.
     */
    double zeroBitFraction() const;

    /** Rebuild a float network from the quantized weights. */
    Network toNetwork() const;
};

/**
 * Quantize a trained float network with per-layer minimum precision:
 * digitBits(layer) = minDigitBits(max |w| of the layer).
 */
QuantizedModel quantize(const Network &net);

/**
 * Quantization sanity metric: classification-error delta between the
 * float network and its quantized/dequantized twin on a dataset. Both
 * evaluations run through the batched engine with the same options.
 *
 * @param limit evaluate only the first @a limit samples; 0 and
 * limit > set size both mean the whole set (see Network::evaluateError).
 * The precision-sweep bench passes paperEvalLimit so its delta is
 * computed on the same sample count as the vulnerability analysis.
 */
double quantizationErrorDelta(const Network &net,
                              const data::Dataset &test_set,
                              std::size_t limit = 0);

/** As above with full evaluation options (limit, worker pool). */
double quantizationErrorDelta(const Network &net,
                              const data::Dataset &test_set,
                              const EvalOptions &options);

} // namespace uvolt::nn

#endif // UVOLT_NN_QUANTIZER_HH
