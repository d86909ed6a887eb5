/**
 * @file
 * Offline training (the paper trains its MNIST baseline in MATLAB with
 * 60000 images; here a plain C++ SGD trainer produces the weight sets).
 * Backpropagation with momentum over logsig hidden layers and a
 * softmax/cross-entropy output.
 */

#ifndef UVOLT_NN_TRAINER_HH
#define UVOLT_NN_TRAINER_HH

#include <cstdint>

#include "data/dataset.hh"
#include "nn/network.hh"

namespace uvolt::nn
{

/** Training hyper-parameters. */
struct TrainOptions
{
    int epochs = 6;
    double learningRate = 0.05;
    double momentum = 0.9;
    double lrDecay = 0.7;     ///< per-epoch learning-rate multiplier
    std::uint64_t seed = 7;   ///< init + shuffling seed
    bool verbose = false;     ///< inform() a line per epoch
};

/** Epoch-level training record. */
struct TrainReport
{
    int epochs = 0;
    double finalTrainError = 1.0;
    double finalLoss = 0.0;
};

/**
 * Train @a net in place on @a train. Weights are (re-)initialized from
 * options.seed, so the result is a pure function of (topology, dataset,
 * options).
 */
TrainReport train(Network &net, const data::Dataset &train,
                  const TrainOptions &options = {});

/** Options for the MATLAB-style output-layer refinement. */
struct OutputMseOptions
{
    int epochs = 0;            ///< 0 disables the phase entirely
    double learningRate = 0.5; ///< on the (tiny) output layer only
    double momentum = 0.9;
    float targetHigh = 1.0f;   ///< logsig target for the true class
    float targetLow = 0.0f;    ///< logsig target for the other classes
};

/**
 * Refine only the output layer with mean-squared error against logsig
 * activations (the paper's MATLAB flow trains logsig neurons against
 * 0/1 targets). Hidden layers are frozen, so their activations are
 * computed once and the refinement runs thousands of cheap epochs.
 *
 * The characteristic result — and the reason this phase exists — is
 * the paper's Fig 9 weight distribution: chasing saturated 0/1 targets
 * inflates output-layer weights far beyond (-1, 1) (their Layer4 needs
 * a 4-bit digit field) while decision margins stay ordinary, which is
 * what makes the output layer the most fault-sensitive one.
 */
TrainReport finetuneOutputMse(Network &net, const data::Dataset &train,
                              const OutputMseOptions &options);

} // namespace uvolt::nn

#endif // UVOLT_NN_TRAINER_HH
