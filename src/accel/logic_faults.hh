/**
 * @file
 * Datapath faults under VCCINT undervolting (the paper's future work:
 * "a more comprehensive voltage scaling in other components").
 *
 * The paper undervolts only VCCBRAM while running the NN, keeping the
 * DSP/LUT datapath at nominal; Fig 1b shows VCCINT has its own
 * SAFE/CRITICAL/CRASH regions. This module models what happens when the
 * *datapath* enters its critical region: timing failures in MAC/adder
 * trees corrupt a neuron's accumulated pre-activation before the
 * activation function. Each neuron evaluation independently suffers a
 * single-bit upset of its fixed-point accumulator with a probability
 * that grows exponentially below the logic Vmin — the same law the BRAM
 * rail follows, scaled per operation.
 *
 * Unlike BRAM storage faults (static, maskable, mostly "1"->"0"),
 * datapath faults are transient, bipolar, and strike every layer's
 * computation — which is why they degrade accuracy catastrophically and
 * why the paper's BRAM-first focus is the right engineering order.
 */

#ifndef UVOLT_ACCEL_LOGIC_FAULTS_HH
#define UVOLT_ACCEL_LOGIC_FAULTS_HH

#include <cstdint>

#include "data/dataset.hh"
#include "fpga/platform.hh"
#include "nn/network.hh"
#include "util/rng.hh"

namespace uvolt::accel
{

/** Timing-fault behaviour of the logic rail. */
class LogicFaultModel
{
  public:
    /**
     * @param spec platform (logic Vmin/Vcrash come from its calibration)
     *
     * The per-neuron-evaluation upset probability at the logic Vcrash
     * is 2e-2. A neuron evaluation aggregates hundreds of MAC
     * operations, each a potential timing victim, so that corresponds
     * to a per-MAC failure rate of order 1e-4.
     */
    explicit LogicFaultModel(const fpga::PlatformSpec &spec);

    /**
     * Per-neuron-evaluation upset probability at a VCCINT level:
     * 0 at/above the logic Vmin, exponential growth down to Vcrash
     * (mirroring the BRAM rail's law).
     */
    double neuronUpsetProbability(double vcc_int_v) const;

    const fpga::PlatformSpec &spec() const { return spec_; }

  private:
    fpga::PlatformSpec spec_;
    double slope_;
};

/**
 * Classify one sample with datapath upsets: every neuron's
 * pre-activation suffers, with probability @a upset_prob, a random
 * bit flip in its s1.d6.f9 accumulator representation. Deterministic
 * in the RNG state.
 */
int faultyClassify(const nn::Network &net, std::span<const float> input,
                   double upset_prob, Rng &rng);

/**
 * Classification error over a dataset with datapath upsets at the given
 * VCCINT level.
 * @param limit evaluate only the first @a limit samples (0 = all)
 */
double evaluateErrorUnderLogicFaults(const nn::Network &net,
                                     const data::Dataset &test_set,
                                     const LogicFaultModel &model,
                                     double vcc_int_v, std::uint64_t seed,
                                     std::size_t limit = 0);

} // namespace uvolt::accel

#endif // UVOLT_ACCEL_LOGIC_FAULTS_HH
