#include "nn/trainer.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/logging.hh"
#include "util/rng.hh"

namespace uvolt::nn
{

TrainReport
train(Network &net, const data::Dataset &train_set,
      const TrainOptions &options)
{
    if (train_set.size() == 0)
        fatal("train: empty dataset");
    if (train_set.featureCount() != net.layerSizes().front() ||
        train_set.classCount() != net.layerSizes().back()) {
        fatal("train: dataset {}x{} does not match network {}->{}",
              train_set.featureCount(), train_set.classCount(),
              net.layerSizes().front(), net.layerSizes().back());
    }

    net.initWeights(options.seed);
    Rng shuffle_rng(combineSeeds(options.seed, hashSeed("epoch-shuffle")));

    const int layer_count = net.layerCount();

    // Per-layer activation and delta buffers (activations[0] aliases the
    // input sample).
    std::vector<std::vector<float>> activations(
        static_cast<std::size_t>(layer_count) + 1);
    std::vector<std::vector<float>> deltas(
        static_cast<std::size_t>(layer_count));
    for (int l = 0; l < layer_count; ++l) {
        activations[static_cast<std::size_t>(l) + 1].resize(
            static_cast<std::size_t>(net.layer(l).outputs()));
        deltas[static_cast<std::size_t>(l)].resize(
            static_cast<std::size_t>(net.layer(l).outputs()));
    }

    // Momentum velocity per layer.
    std::vector<std::vector<float>> weight_velocity(
        static_cast<std::size_t>(layer_count));
    std::vector<std::vector<float>> bias_velocity(
        static_cast<std::size_t>(layer_count));
    for (int l = 0; l < layer_count; ++l) {
        weight_velocity[static_cast<std::size_t>(l)].assign(
            net.layer(l).weights().size(), 0.0f);
        bias_velocity[static_cast<std::size_t>(l)].assign(
            net.layer(l).biases().size(), 0.0f);
    }

    std::vector<std::size_t> order(train_set.size());
    std::iota(order.begin(), order.end(), 0);

    TrainReport report;
    double lr = options.learningRate;

    for (int epoch = 0; epoch < options.epochs; ++epoch) {
        shuffle_rng.shuffle(order);
        double loss_sum = 0.0;
        std::size_t wrong = 0;

        for (std::size_t sample_index : order) {
            const auto input = train_set.sample(sample_index);
            const int label = train_set.label(sample_index);

            // ---- forward -------------------------------------------------
            activations[0].assign(input.begin(), input.end());
            for (int l = 0; l < layer_count; ++l) {
                auto &out = activations[static_cast<std::size_t>(l) + 1];
                net.layer(l).forward(
                    activations[static_cast<std::size_t>(l)], out);
                if (l + 1 < layer_count) {
                    for (auto &value : out)
                        value = logsig(value);
                } else {
                    softmaxInPlace(out);
                }
            }

            const auto &probs = activations.back();
            const float p_true =
                std::max(probs[static_cast<std::size_t>(label)], 1e-12f);
            loss_sum -= std::log(p_true);
            const int predicted = static_cast<int>(
                std::max_element(probs.begin(), probs.end()) -
                probs.begin());
            if (predicted != label)
                ++wrong;

            // ---- backward ------------------------------------------------
            // Softmax + cross-entropy: delta = p - onehot(label).
            auto &out_delta = deltas[static_cast<std::size_t>(
                layer_count - 1)];
            for (std::size_t o = 0; o < probs.size(); ++o) {
                out_delta[o] = probs[o] -
                    (static_cast<int>(o) == label ? 1.0f : 0.0f);
            }
            for (int l = layer_count - 2; l >= 0; --l) {
                const auto &next_layer = net.layer(l + 1);
                const auto &next_delta =
                    deltas[static_cast<std::size_t>(l) + 1];
                auto &delta = deltas[static_cast<std::size_t>(l)];
                const auto &activation =
                    activations[static_cast<std::size_t>(l) + 1];
                const float *w = next_layer.weights().data();
                const int fan_out = next_layer.outputs();
                const int width = next_layer.inputs();
                for (int i = 0; i < width; ++i)
                    delta[static_cast<std::size_t>(i)] = 0.0f;
                for (int o = 0; o < fan_out; ++o) {
                    const float d = next_delta[static_cast<std::size_t>(o)];
                    const float *row = w +
                        static_cast<std::size_t>(o) *
                        static_cast<std::size_t>(width);
                    for (int i = 0; i < width; ++i)
                        delta[static_cast<std::size_t>(i)] += row[i] * d;
                }
                // logsig derivative: a (1 - a).
                for (int i = 0; i < width; ++i) {
                    const float a = activation[static_cast<std::size_t>(i)];
                    delta[static_cast<std::size_t>(i)] *= a * (1.0f - a);
                }
            }

            // ---- update --------------------------------------------------
            const auto lr_f = static_cast<float>(lr);
            const auto momentum_f = static_cast<float>(options.momentum);
            for (int l = 0; l < layer_count; ++l) {
                auto &layer = net.layer(l);
                auto weights = layer.weights();
                auto biases = layer.biases();
                const auto &delta = deltas[static_cast<std::size_t>(l)];
                const auto &input_act =
                    activations[static_cast<std::size_t>(l)];
                auto &w_vel = weight_velocity[static_cast<std::size_t>(l)];
                auto &b_vel = bias_velocity[static_cast<std::size_t>(l)];
                const int width = layer.inputs();
                for (int o = 0; o < layer.outputs(); ++o) {
                    const float d = delta[static_cast<std::size_t>(o)];
                    float *row = weights.data() +
                        static_cast<std::size_t>(o) *
                        static_cast<std::size_t>(width);
                    float *vel = w_vel.data() +
                        static_cast<std::size_t>(o) *
                        static_cast<std::size_t>(width);
                    for (int i = 0; i < width; ++i) {
                        const float grad =
                            d * input_act[static_cast<std::size_t>(i)];
                        vel[i] = momentum_f * vel[i] - lr_f * grad;
                        row[i] += vel[i];
                    }
                    auto &bias_vel = b_vel[static_cast<std::size_t>(o)];
                    bias_vel = momentum_f * bias_vel - lr_f * d;
                    biases[static_cast<std::size_t>(o)] += bias_vel;
                }
            }
        }

        report.finalTrainError =
            static_cast<double>(wrong) /
            static_cast<double>(train_set.size());
        report.finalLoss =
            loss_sum / static_cast<double>(train_set.size());
        report.epochs = epoch + 1;
        if (options.verbose) {
            inform("epoch {}/{}: train error {:.4f}, loss {:.4f}",
                   epoch + 1, options.epochs, report.finalTrainError,
                   report.finalLoss);
        }
        lr *= options.lrDecay;
    }
    return report;
}

TrainReport
finetuneOutputMse(Network &net, const data::Dataset &train_set,
                  const OutputMseOptions &options)
{
    TrainReport report;
    if (options.epochs <= 0)
        return report;
    if (train_set.size() == 0)
        fatal("finetuneOutputMse: empty dataset");

    const int layer_count = net.layerCount();
    auto &output = net.layer(layer_count - 1);
    const int hidden_width = output.inputs();
    const int classes = output.outputs();

    // Hidden layers are frozen: compute every sample's penultimate
    // activation once.
    std::vector<float> features(train_set.size() *
                                static_cast<std::size_t>(hidden_width));
    {
        std::vector<float> buffer_a;
        std::vector<float> buffer_b;
        for (std::size_t i = 0; i < train_set.size(); ++i) {
            const auto input = train_set.sample(i);
            buffer_a.assign(input.begin(), input.end());
            for (int l = 0; l + 1 < layer_count; ++l) {
                const auto &layer = net.layer(l);
                buffer_b.assign(
                    static_cast<std::size_t>(layer.outputs()), 0.0f);
                layer.forward(buffer_a, buffer_b);
                for (auto &value : buffer_b)
                    value = logsig(value);
                buffer_a.swap(buffer_b);
            }
            std::copy(buffer_a.begin(), buffer_a.end(),
                      features.begin() +
                          static_cast<std::ptrdiff_t>(
                              i * static_cast<std::size_t>(hidden_width)));
        }
    }

    auto weights = output.weights();
    auto biases = output.biases();
    std::vector<float> w_velocity(weights.size(), 0.0f);
    std::vector<float> b_velocity(biases.size(), 0.0f);
    std::vector<float> z(static_cast<std::size_t>(classes));

    const auto lr = static_cast<float>(options.learningRate);
    const auto momentum = static_cast<float>(options.momentum);

    for (int epoch = 0; epoch < options.epochs; ++epoch) {
        double loss_sum = 0.0;
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < train_set.size(); ++i) {
            const float *h = features.data() +
                i * static_cast<std::size_t>(hidden_width);
            output.forward({h, static_cast<std::size_t>(hidden_width)},
                           z);
            int best = 0;
            for (int k = 0; k < classes; ++k) {
                if (z[static_cast<std::size_t>(k)] >
                    z[static_cast<std::size_t>(best)])
                    best = k;
            }
            wrong += (best != train_set.label(i));

            for (int k = 0; k < classes; ++k) {
                const float y = logsig(z[static_cast<std::size_t>(k)]);
                const float target = k == train_set.label(i)
                    ? options.targetHigh
                    : options.targetLow;
                const float err = y - target;
                loss_sum += static_cast<double>(err) * err;
                // d(MSE)/dz = (y - t) y (1 - y)
                const float delta = err * y * (1.0f - y);
                float *row = weights.data() +
                    static_cast<std::size_t>(k) *
                    static_cast<std::size_t>(hidden_width);
                float *vel = w_velocity.data() +
                    static_cast<std::size_t>(k) *
                    static_cast<std::size_t>(hidden_width);
                for (int j = 0; j < hidden_width; ++j) {
                    vel[j] = momentum * vel[j] - lr * delta * h[j];
                    row[j] += vel[j];
                }
                auto &bias_vel = b_velocity[static_cast<std::size_t>(k)];
                bias_vel = momentum * bias_vel - lr * delta;
                biases[static_cast<std::size_t>(k)] += bias_vel;
            }
        }
        report.epochs = epoch + 1;
        report.finalLoss =
            loss_sum / static_cast<double>(train_set.size());
        report.finalTrainError = static_cast<double>(wrong) /
            static_cast<double>(train_set.size());
    }
    return report;
}

} // namespace uvolt::nn
