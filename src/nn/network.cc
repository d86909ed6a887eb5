#include "nn/network.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <new>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"

namespace uvolt::nn
{

namespace
{

struct BatchMetrics
{
    telemetry::Counter &batches =
        telemetry::Registry::global().counter("nn.batch.batches");
    telemetry::Counter &samples =
        telemetry::Registry::global().counter("nn.batch.samples");
    telemetry::Counter &parallelJobs =
        telemetry::Registry::global().counter("nn.batch.parallel_jobs");
};

BatchMetrics &
batchMetrics()
{
    static BatchMetrics metrics;
    return metrics;
}

} // namespace

int
defaultEvalBatch()
{
    static const int batch = [] {
        if (const char *env = std::getenv("UVOLT_BATCH")) {
            const int parsed = std::atoi(env);
            if (parsed >= 1)
                return parsed;
            warn("UVOLT_BATCH='{}' is not a positive integer; using 64",
                 env);
        }
        return 64; // fastest width measured in BM_MnistEvalBatched
    }();
    return batch;
}

float
logsig(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

void
softmaxInPlace(std::span<float> logits)
{
    if (logits.empty())
        return;
    const float peak = *std::max_element(logits.begin(), logits.end());
    float sum = 0.0f;
    for (auto &value : logits) {
        value = std::exp(value - peak);
        sum += value;
    }
    for (auto &value : logits)
        value /= sum;
}

DenseLayer::DenseLayer(int inputs, int outputs)
    : inputs_(inputs), outputs_(outputs),
      weights_(static_cast<std::size_t>(inputs) *
               static_cast<std::size_t>(outputs), 0.0f),
      biases_(static_cast<std::size_t>(outputs), 0.0f)
{
    if (inputs <= 0 || outputs <= 0)
        fatal("DenseLayer {}x{} must have positive dimensions", inputs,
              outputs);
}

float
DenseLayer::weight(int output, int input) const
{
    return weights_[static_cast<std::size_t>(output) *
                    static_cast<std::size_t>(inputs_) +
                    static_cast<std::size_t>(input)];
}

void
DenseLayer::setWeight(int output, int input, float value)
{
    weights_[static_cast<std::size_t>(output) *
             static_cast<std::size_t>(inputs_) +
             static_cast<std::size_t>(input)] = value;
}

void
DenseLayer::setBias(int output, float value)
{
    biases_[static_cast<std::size_t>(output)] = value;
}

void
DenseLayer::forward(std::span<const float> x, std::span<float> z) const
{
    if (static_cast<int>(x.size()) != inputs_ ||
        static_cast<int>(z.size()) != outputs_) {
        fatal("forward: got {}->{} buffers for a {}x{} layer", x.size(),
              z.size(), inputs_, outputs_);
    }
    // One arithmetic definition for both paths: the scalar forward IS
    // the batched kernel at width 1. A hand-written scalar loop would
    // compile to a different product-rounding mix (the vectorizer
    // rounds products before the ordered adds, the remainder loop
    // contracts them into FMAs), and the batched kernel could never
    // reproduce that codegen artifact bit for bit.
    forwardBatch(x, z, 1);
}

void
DenseLayer::forwardBatch(std::span<const float> x, std::span<float> z,
                         int batch) const
{
    if (batch <= 0)
        fatal("forwardBatch: batch {} must be positive", batch);
    const std::size_t columns = static_cast<std::size_t>(batch);
    if (x.size() != static_cast<std::size_t>(inputs_) * columns ||
        z.size() != static_cast<std::size_t>(outputs_) * columns) {
        fatal("forwardBatch: got {}->{} buffers for a {}x{} layer, "
              "batch {}", x.size(), z.size(), inputs_, outputs_, batch);
    }

    // Seed every accumulator with its bias (the scalar chain's start).
    for (int o = 0; o < outputs_; ++o) {
        const float bias = biases_[static_cast<std::size_t>(o)];
        float *row = z.data() + static_cast<std::size_t>(o) * columns;
        for (std::size_t s = 0; s < columns; ++s)
            row[s] = bias;
    }

    // Cache blocking: the (tile_o x tile_i) weight tile and the
    // (tile_i x batch) activation tile stay L1/L2-resident while every
    // accumulator of the block drains them. For each (o, s) the input
    // tiles are visited in ascending order, so the per-accumulator
    // addition chain is exactly the scalar one; the innermost loop runs
    // over the contiguous batch dimension, which vectorizes without
    // reassociating any chain.
    constexpr int tile_i = 128;
    constexpr int tile_o = 64;
    for (int i0 = 0; i0 < inputs_; i0 += tile_i) {
        const int i_end = std::min(i0 + tile_i, inputs_);
        for (int o0 = 0; o0 < outputs_; o0 += tile_o) {
            const int o_end = std::min(o0 + tile_o, outputs_);
            for (int o = o0; o < o_end; ++o) {
                const float *weight_row = weights_.data() +
                    static_cast<std::size_t>(o) *
                        static_cast<std::size_t>(inputs_);
                float *z_row = z.data() +
                    static_cast<std::size_t>(o) * columns;
                for (int i = i0; i < i_end; ++i) {
                    const float w = weight_row[i];
                    const float *x_row = x.data() +
                        static_cast<std::size_t>(i) * columns;
                    for (std::size_t s = 0; s < columns; ++s)
                        z_row[s] += w * x_row[s];
                }
            }
        }
    }
}

float
DenseLayer::maxAbsWeight() const
{
    float peak = 0.0f;
    for (float w : weights_)
        peak = std::max(peak, std::abs(w));
    return peak;
}

Network::Network(std::vector<int> layer_sizes) : sizes_(std::move(layer_sizes))
{
    if (sizes_.size() < 2)
        fatal("Network needs at least an input and an output layer");
    layers_.reserve(sizes_.size() - 1);
    for (std::size_t i = 0; i + 1 < sizes_.size(); ++i)
        layers_.emplace_back(sizes_[i], sizes_[i + 1]);
}

DenseLayer &
Network::layer(int index)
{
    if (index < 0 || index >= layerCount())
        fatal("layer {} out of {}", index, layerCount());
    return layers_[static_cast<std::size_t>(index)];
}

const DenseLayer &
Network::layer(int index) const
{
    return const_cast<Network *>(this)->layer(index);
}

std::size_t
Network::totalWeights() const
{
    std::size_t total = 0;
    for (const auto &layer : layers_)
        total += layer.weights().size();
    return total;
}

void
Network::initWeights(std::uint64_t seed)
{
    Rng rng(combineSeeds(seed, hashSeed("glorot-init")));
    for (auto &layer : layers_) {
        // Glorot & Bengio's normalized init with their x4 correction for
        // the logistic sigmoid; without it a 6-layer logsig stack sits in
        // the flat region and never trains.
        const double limit = 4.0 * std::sqrt(
            6.0 / (layer.inputs() + layer.outputs()));
        for (auto &w : layer.weights())
            w = static_cast<float>(rng.uniform(-limit, limit));
        for (auto &b : layer.biases())
            b = 0.0f;
    }
}

std::vector<float>
Network::infer(std::span<const float> input) const
{
    std::vector<float> activations(input.begin(), input.end());
    std::vector<float> next;
    for (int l = 0; l < layerCount(); ++l) {
        const auto &layer = layers_[static_cast<std::size_t>(l)];
        next.assign(static_cast<std::size_t>(layer.outputs()), 0.0f);
        layer.forward(activations, next);
        if (l + 1 < layerCount()) {
            for (auto &value : next)
                value = logsig(value);
        } else {
            softmaxInPlace(next);
        }
        activations.swap(next);
    }
    return activations;
}

int
Network::classify(std::span<const float> input) const
{
    const auto probs = infer(input);
    return static_cast<int>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
}

namespace
{

/**
 * Allocator aligning float storage to a 64-byte cache line. The batched
 * kernels vectorize over the batch columns of their scratch matrices;
 * with malloc's 16-byte alignment, whether each 64-byte vector access
 * splits two cache lines depended on the heap's allocation history, so
 * evaluation speed varied between builds with identical NN code.
 */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;
    static constexpr std::align_val_t alignment{64};

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), alignment));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        ::operator delete(p, n * sizeof(T), alignment);
    }

    friend bool
    operator==(const CacheLineAllocator &, const CacheLineAllocator &)
    {
        return true;
    }
};

/** Feature-major activation scratch of the batched kernels. */
using Scratch = std::vector<float, CacheLineAllocator<float>>;

/**
 * Run the whole stack batched; leaves the final layer's pre-softmax
 * logits in @a a, feature-major (class c of sample s at
 * a[c * batch + s]). @a inputs holds the samples back to back in
 * dataset order; @a a and @a b are caller-owned scratch, resized here
 * so repeat calls reuse their capacity.
 */
/** Size the scratch matrices for a @a batch-column pass of @a net. */
void
sizeBatchScratch(const Network &net, std::size_t columns,
                 Scratch &a, Scratch &b)
{
    std::size_t max_width = 0;
    for (int width : net.layerSizes())
        max_width = std::max(max_width, static_cast<std::size_t>(width));
    a.resize(max_width * columns);
    b.resize(max_width * columns);
}

/**
 * Run the whole stack on the feature-major activations already gathered
 * into @a a; leaves the final layer's pre-softmax logits in @a a (class
 * c of sample s at a[c * batch + s]).
 */
void
runBatchLayers(const Network &net, int batch, Scratch &a, Scratch &b)
{
    const std::size_t columns = static_cast<std::size_t>(batch);
    for (int l = 0; l < net.layerCount(); ++l) {
        const DenseLayer &layer = net.layer(l);
        const std::size_t in =
            static_cast<std::size_t>(layer.inputs()) * columns;
        const std::size_t out =
            static_cast<std::size_t>(layer.outputs()) * columns;
        layer.forwardBatch(std::span<const float>(a.data(), in),
                           std::span<float>(b.data(), out), batch);
        if (l + 1 < net.layerCount()) {
            for (std::size_t k = 0; k < out; ++k)
                b[k] = logsig(b[k]);
        }
        a.swap(b);
    }
}

void
batchLogits(const Network &net, std::span<const float> inputs, int batch,
            Scratch &a, Scratch &b)
{
    const std::size_t columns = static_cast<std::size_t>(batch);
    const std::size_t features =
        static_cast<std::size_t>(net.layerSizes().front());
    if (inputs.size() != features * columns)
        fatal("batchLogits: {} inputs for {} samples of width {}",
              inputs.size(), batch, features);
    sizeBatchScratch(net, columns, a, b);

    // Transpose sample-major rows into the feature-major batch layout.
    for (std::size_t s = 0; s < columns; ++s) {
        const float *row = inputs.data() + s * features;
        for (std::size_t i = 0; i < features; ++i)
            a[i * columns + s] = row[i];
    }

    runBatchLayers(net, batch, a, b);
}

/**
 * Gather sample @a s's logit column, softmax it through the same code
 * path the scalar infer() uses, and return the arg-max class.
 */
int
classifyColumn(std::span<const float> logits, int batch, int s,
               std::vector<float> &column)
{
    for (std::size_t c = 0; c < column.size(); ++c)
        column[c] = logits[c * static_cast<std::size_t>(batch) +
                           static_cast<std::size_t>(s)];
    softmaxInPlace(column);
    return static_cast<int>(
        std::max_element(column.begin(), column.end()) - column.begin());
}

} // namespace

void
Network::inferBatch(std::span<const float> inputs, std::span<float> probs,
                    int batch) const
{
    const std::size_t columns = static_cast<std::size_t>(batch);
    const std::size_t classes =
        static_cast<std::size_t>(sizes_.back());
    if (probs.size() != classes * columns)
        fatal("inferBatch: {} prob slots for {} samples of {} classes",
              probs.size(), batch, classes);
    Scratch a, b;
    batchLogits(*this, inputs, batch, a, b);
    std::vector<float> column(classes);
    for (std::size_t s = 0; s < columns; ++s) {
        for (std::size_t c = 0; c < classes; ++c)
            column[c] = a[c * columns + s];
        softmaxInPlace(column);
        std::copy(column.begin(), column.end(),
                  probs.begin() + static_cast<std::ptrdiff_t>(s * classes));
    }
}

void
Network::classifyBatch(std::span<const float> inputs,
                       std::span<int> classes, int batch) const
{
    if (classes.size() != static_cast<std::size_t>(batch))
        fatal("classifyBatch: {} class slots for batch {}",
              classes.size(), batch);
    Scratch a, b;
    batchLogits(*this, inputs, batch, a, b);
    std::vector<float> column(static_cast<std::size_t>(sizes_.back()));
    for (int s = 0; s < batch; ++s)
        classes[static_cast<std::size_t>(s)] =
            classifyColumn(a, batch, s, column);
}

void
Network::classifyScattered(std::span<const std::span<const float>> samples,
                           std::span<int> classes) const
{
    if (classes.size() != samples.size())
        fatal("classifyScattered: {} class slots for {} samples",
              classes.size(), samples.size());
    if (samples.empty())
        return;
    const std::size_t columns = samples.size();
    const std::size_t features = static_cast<std::size_t>(sizes_.front());
    Scratch a, b;
    sizeBatchScratch(*this, columns, a, b);

    // Gather the scattered rows straight into the feature-major layout
    // (the same transpose batchLogits does from a contiguous block).
    for (std::size_t s = 0; s < columns; ++s) {
        if (samples[s].size() != features)
            fatal("classifyScattered: sample {} has {} features, "
                  "expected {}",
                  s, samples[s].size(), features);
        const float *row = samples[s].data();
        for (std::size_t i = 0; i < features; ++i)
            a[i * columns + s] = row[i];
    }

    const int batch = static_cast<int>(columns);
    runBatchLayers(*this, batch, a, b);
    std::vector<float> column(static_cast<std::size_t>(sizes_.back()));
    for (int s = 0; s < batch; ++s)
        classes[static_cast<std::size_t>(s)] =
            classifyColumn(a, batch, s, column);
}

std::size_t
Network::countMisclassified(const data::Dataset &set, std::size_t first,
                            std::size_t count, int batch) const
{
    std::size_t wrong = 0;
    Scratch a, b;
    std::vector<float> column(static_cast<std::size_t>(sizes_.back()));
    for (std::size_t start = first; start < first + count;) {
        const int n = static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(batch), first + count - start));
        batchLogits(*this, set.samples(start, static_cast<std::size_t>(n)),
                    n, a, b);
        for (int s = 0; s < n; ++s) {
            if (classifyColumn(a, n, s, column) !=
                set.label(start + static_cast<std::size_t>(s)))
                ++wrong;
        }
        batchMetrics().batches.increment();
        start += static_cast<std::size_t>(n);
    }
    return wrong;
}

double
Network::evaluateError(const data::Dataset &set, std::size_t limit) const
{
    return evaluateError(set, EvalOptions{.limit = limit});
}

double
Network::evaluateError(const data::Dataset &set,
                       const EvalOptions &options) const
{
    const std::size_t n = options.limit == 0
        ? set.size()
        : std::min(options.limit, set.size());
    if (n == 0)
        fatal("evaluateError on an empty dataset");
    const int batch = options.batch > 0 ? options.batch
                                        : defaultEvalBatch();
    batchMetrics().samples.add(n);

    if (options.pool == nullptr) {
        return static_cast<double>(countMisclassified(set, 0, n, batch)) /
            static_cast<double>(n);
    }

    // One job per batch, each with a pre-assigned result slot; the
    // reduction walks the slots in plan order, so worker count and
    // completion order never touch the result (exact integer counts
    // make the sum order-free anyway — the plan order is belt and
    // braces, matching the fleet engine's convention).
    const std::size_t stride = static_cast<std::size_t>(batch);
    const std::size_t jobs = (n + stride - 1) / stride;
    std::vector<std::size_t> slot(jobs, 0);
    for (std::size_t j = 0; j < jobs; ++j) {
        options.pool->submit([this, &set, &slot, j, n, stride, batch] {
            const std::size_t start = j * stride;
            slot[j] = countMisclassified(
                set, start, std::min(stride, n - start), batch);
        });
    }
    options.pool->wait();
    batchMetrics().parallelJobs.add(jobs);
    std::size_t wrong = 0;
    for (std::size_t j = 0; j < jobs; ++j)
        wrong += slot[j];
    return static_cast<double>(wrong) / static_cast<double>(n);
}

double
Network::evaluateErrorScalar(const data::Dataset &set,
                             std::size_t limit) const
{
    const std::size_t n =
        limit == 0 ? set.size() : std::min(limit, set.size());
    if (n == 0)
        fatal("evaluateError on an empty dataset");
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (classify(set.sample(i)) != set.label(i))
            ++wrong;
    }
    return static_cast<double>(wrong) / static_cast<double>(n);
}

} // namespace uvolt::nn
