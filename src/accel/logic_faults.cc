#include "accel/logic_faults.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fxp/fixed_point.hh"
#include "util/logging.hh"

namespace uvolt::accel
{

namespace
{

/** Per-neuron-evaluation upset probability at the logic Vcrash. */
constexpr double upsetProbAtVcrash = 2e-2;

/** Accumulator format: wide enough for a 1024-input dot product. */
const fxp::QFormat accumulatorFormat(6); // s1.d6.f9

/**
 * Flip one high-order bit of a value's fixed-point representation.
 * Timing failures strike the longest combinational paths first, and in
 * a MAC/adder tree those are the carries into the top of the word, so
 * upsets land in the sign/digit field rather than uniformly.
 */
float
upsetValue(float value, Rng &rng)
{
    const fxp::Word word = accumulatorFormat.quantize(value);
    const int bit = static_cast<int>(rng.uniformInt(
        fxp::wordBits - 1 - accumulatorFormat.digitBits(),
        fxp::wordBits - 1));
    const fxp::Word flipped =
        fxp::withBit(word, bit, !fxp::getBit(word, bit));
    return static_cast<float>(accumulatorFormat.dequantize(flipped));
}

} // namespace

LogicFaultModel::LogicFaultModel(const fpga::PlatformSpec &spec)
    : spec_(spec)
{
    const double span =
        (spec_.calib.intVminMv - spec_.calib.intVcrashMv) / 1000.0;
    // Same exponential-growth convention as the BRAM rail: roughly one
    // event "unit" at Vmin scaling up to the calibrated rate at Vcrash.
    slope_ = std::log(1e4) / span;
}

double
LogicFaultModel::neuronUpsetProbability(double vcc_int_v) const
{
    const double v_min = spec_.calib.intVminMv / 1000.0;
    const double v_crash = spec_.calib.intVcrashMv / 1000.0;
    if (vcc_int_v >= v_min)
        return 0.0;
    const double v = std::max(vcc_int_v, v_crash);
    return std::min(1.0, upsetProbAtVcrash * std::exp(-slope_ *
                                                      (v - v_crash)));
}

int
faultyClassify(const nn::Network &net, std::span<const float> input,
               double upset_prob, Rng &rng)
{
    std::vector<float> activations(input.begin(), input.end());
    std::vector<float> next;
    for (int l = 0; l < net.layerCount(); ++l) {
        const auto &layer = net.layer(l);
        next.assign(static_cast<std::size_t>(layer.outputs()), 0.0f);
        layer.forward(activations, next);
        for (auto &value : next) {
            if (upset_prob > 0.0 && rng.chance(upset_prob))
                value = upsetValue(value, rng);
            if (l + 1 < net.layerCount())
                value = nn::logsig(value);
        }
        activations.swap(next);
    }
    return static_cast<int>(
        std::max_element(activations.begin(), activations.end()) -
        activations.begin());
}

double
evaluateErrorUnderLogicFaults(const nn::Network &net,
                              const data::Dataset &test_set,
                              const LogicFaultModel &model,
                              double vcc_int_v, std::uint64_t seed,
                              std::size_t limit)
{
    const std::size_t n = limit == 0
        ? test_set.size()
        : std::min(limit, test_set.size());
    if (n == 0)
        fatal("evaluateErrorUnderLogicFaults: empty dataset");

    const double prob = model.neuronUpsetProbability(vcc_int_v);
    if (prob == 0.0) {
        // Above Vmin the datapath is fault-free and faultyClassify()
        // degenerates to an arg-max over the final logits — the same
        // decision classify() makes (softmax is order-preserving and
        // the RNG is never consulted). Use the batched engine for the
        // common fault-free region of every VCCINT sweep.
        return net.evaluateError(test_set, nn::EvalOptions{.limit = n});
    }
    // Below Vmin the upsets draw from one sequential RNG stream whose
    // per-neuron order is part of the reproducible result; batching
    // would reorder the draws, so this path stays sample-by-sample.
    Rng rng(combineSeeds(seed, hashSeed("logic-upsets")));
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (faultyClassify(net, test_set.sample(i), prob, rng) !=
            test_set.label(i)) {
            ++wrong;
        }
    }
    return static_cast<double>(wrong) / static_cast<double>(n);
}

} // namespace uvolt::accel
