#include "nn/network.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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

namespace
{

/*
 * expf() is glibc 2.36's __expf_fma: the ARM optimized-routines expf
 * with a 32-entry table, every multiply-add it contracts written as an
 * explicit std::fma. With x * 32 / ln 2 = k + r, exp(x) = 2^(k/32) *
 * 2^(r/32), the first factor from the table and the second from a
 * cubic in r, all in double and rounded to float once.
 */

/** expTable[i] = bits(2^(i/32)) - (i << 47). Entry k % 32 plus
 *  k << 47 is then bits(2^(k/32)): the low 5 bits of k cancel the
 *  subtraction and the rest add k / 32 (rounded down) to the
 *  exponent. */
constexpr std::uint64_t expTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double expInvLn2N = 0x1.71547652b82fep+5; ///< 32 / ln 2
constexpr double expShift = 0x1.8p+52; ///< rounds k into the low bits
constexpr double expC0 = 0x1.c6af84b912394p-20;
constexpr double expC1 = 0x1.ebfce50fac4f3p-13;
constexpr double expC2 = 0x1.62e42ff0c52d6p-6;
constexpr float expOverflow = 0x1.62e42ep6f;   ///< above: +inf
constexpr float expUnderflow = -0x1.9fe368p6f; ///< below: 0

/**
 * expf()'s body. Branch-free, so a loop over it vectorizes: every input
 * runs the core, and the two range selects replace its result outside
 * [expUnderflow, expOverflow], where the core gives garbage (but no
 * trap and no out-of-range load). A NaN fails both compares and stays
 * NaN through the core. Declared inline, unlike expf(): GCC does not
 * inline a plain function this long, and a loop with a call in it stays
 * scalar.
 */
inline float
expInline(float x)
{
    const double xd = x;
    const double zs = std::fma(expInvLn2N, xd, expShift);
    const std::uint64_t ki = std::bit_cast<std::uint64_t>(zs);
    const double kd = zs - expShift;
    const double r = std::fma(expInvLn2N, xd, -kd);
    const double s = std::bit_cast<double>(expTable[ki & 31] + (ki << 47));
    const double y = std::fma(std::fma(expC0, r, expC1), r * r,
                              std::fma(expC2, r, 1.0));
    float e = static_cast<float>(y * s);
    e = x > expOverflow ? std::numeric_limits<float>::infinity() : e;
    e = x < expUnderflow ? 0.0f : e;
    return e;
}

/** logsig()'s body, inlined into the engines' hidden-layer loops,
 *  which GCC then vectorizes. */
inline float
logsigInline(float x)
{
    return 1.0f / (1.0f + expInline(-x));
}

} // namespace

float
expf(float x)
{
    return expInline(x);
}

float
logsig(float x)
{
    return logsigInline(x);
}

void
softmaxInPlace(std::span<float> logits)
{
    if (logits.empty())
        return;
    const float peak = *std::max_element(logits.begin(), logits.end());
    float sum = 0.0f;
    for (auto &value : logits) {
        value = expf(value - peak);
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

void
DenseLayer::forward(std::span<const float> x, std::span<float> z) const
{
    if (static_cast<int>(x.size()) != inputs_ ||
        static_cast<int>(z.size()) != outputs_) {
        fatal("forward: got {}->{} buffers for a {}x{} layer", x.size(),
              z.size(), inputs_, outputs_);
    }
    // The executable spec of the batched kernel: one bias-seeded fused
    // multiply-add chain per output, inputs in ascending order. Eight
    // chains advance side by side so their FMA latencies overlap; no
    // chain's order changes.
    constexpr int chains = 8;
    const auto inputs = static_cast<std::size_t>(inputs_);
    int o = 0;
    for (; o + chains <= outputs_; o += chains) {
        const float *weight_rows =
            weights_.data() + static_cast<std::size_t>(o) * inputs;
        float acc[chains];
        for (int c = 0; c < chains; ++c)
            acc[c] = biases_[static_cast<std::size_t>(o + c)];
        for (std::size_t i = 0; i < inputs; ++i)
            for (int c = 0; c < chains; ++c)
                acc[c] = std::fma(
                    weight_rows[static_cast<std::size_t>(c) * inputs + i],
                    x[i], acc[c]);
        for (int c = 0; c < chains; ++c)
            z[static_cast<std::size_t>(o + c)] = acc[c];
    }
    for (; o < outputs_; ++o) {
        const float *weight_row =
            weights_.data() + static_cast<std::size_t>(o) * inputs;
        float acc = biases_[static_cast<std::size_t>(o)];
        for (std::size_t i = 0; i < inputs; ++i)
            acc = std::fma(weight_row[i], x[i], acc);
        z[static_cast<std::size_t>(o)] = acc;
    }
}

namespace
{

/** Output rows of a full register tile. */
constexpr int tileRows = 8;

/**
 * One Rows x Cols register tile of Z = W X + b. @a w points at the
 * tile's first weight row (row stride @a inputs) and @a bias at its
 * first bias; @a x and @a z point at the tile's first activation and
 * result column (row stride @a columns). Every accumulator is seeded
 * with its bias and takes one std::fma per input in ascending order,
 * which is exactly the chain DenseLayer::forward() computes.
 */
template <int Rows, int Cols>
void
denseTile(const float *w, const float *bias, const float *x, float *z,
          std::size_t inputs, std::size_t columns)
{
    float acc[Rows][Cols];
    for (int r = 0; r < Rows; ++r)
        for (int c = 0; c < Cols; ++c)
            acc[r][c] = bias[r];
    for (std::size_t i = 0; i < inputs; ++i) {
        const float *x_row = x + i * columns;
#pragma GCC unroll 16
        for (int r = 0; r < Rows; ++r) {
            const float weight = w[static_cast<std::size_t>(r) * inputs + i];
            // Left rolled on purpose: GCC fully unrolls a short constant
            // loop before the vectorizer sees it, which leaves the
            // 8-column tile as scalar code.
#pragma GCC unroll 1
            for (int c = 0; c < Cols; ++c)
                acc[r][c] = std::fma(weight, x_row[c], acc[r][c]);
        }
    }
    for (int r = 0; r < Rows; ++r)
        for (int c = 0; c < Cols; ++c)
            z[static_cast<std::size_t>(r) * columns +
              static_cast<std::size_t>(c)] = acc[r][c];
}

/**
 * Cols batch columns of a whole layer: full tileRows-row tiles, then the
 * leftover output rows one at a time. @a x and @a z point at the strip's
 * first column.
 */
template <int Cols>
void
denseStrip(const DenseLayer &layer, const float *x, float *z,
           std::size_t columns)
{
    const std::size_t inputs = static_cast<std::size_t>(layer.inputs());
    const float *w = layer.weights().data();
    const float *bias = layer.biases().data();
    int o = 0;
    for (; o + tileRows <= layer.outputs(); o += tileRows) {
        const std::size_t row = static_cast<std::size_t>(o);
        denseTile<tileRows, Cols>(w + row * inputs, bias + row, x,
                                  z + row * columns, inputs, columns);
    }
    for (; o < layer.outputs(); ++o) {
        const std::size_t row = static_cast<std::size_t>(o);
        denseTile<1, Cols>(w + row * inputs, bias + row, x,
                           z + row * columns, inputs, columns);
    }
}

} // namespace

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

    // Column strips, widest first. A 32-column strip of activations
    // (inputs x 32 floats, 128 KB for the paper net's widest layer)
    // stays in L2 while every output tile of the layer streams its
    // weight rows past it.
    std::size_t s = 0;
    for (; s + 32 <= columns; s += 32)
        denseStrip<32>(*this, x.data() + s, z.data() + s, columns);
    for (; s + 16 <= columns; s += 16)
        denseStrip<16>(*this, x.data() + s, z.data() + s, columns);
    for (; s + 8 <= columns; s += 8)
        denseStrip<8>(*this, x.data() + s, z.data() + s, columns);
    for (; s < columns; ++s)
        denseStrip<1>(*this, x.data() + s, z.data() + s, columns);
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
                value = logsigInline(value);
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
                b[k] = logsigInline(b[k]);
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
                            std::size_t count) const
{
    std::size_t wrong = 0;
    Scratch a, b;
    std::vector<float> column(static_cast<std::size_t>(sizes_.back()));
    for (std::size_t start = first; start < first + count;) {
        const int n = static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(evalBatch), first + count - start));
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
    batchMetrics().samples.add(n);

    if (options.pool == nullptr) {
        return static_cast<double>(countMisclassified(set, 0, n)) /
            static_cast<double>(n);
    }

    // One job per batch, each with a pre-assigned result slot; the
    // reduction walks the slots in plan order, so worker count and
    // completion order never touch the result (exact integer counts
    // make the sum order-free anyway — the plan order is belt and
    // braces, matching the fleet engine's convention).
    const std::size_t stride = static_cast<std::size_t>(evalBatch);
    const std::size_t jobs = (n + stride - 1) / stride;
    std::vector<std::size_t> slot(jobs, 0);
    for (std::size_t j = 0; j < jobs; ++j) {
        options.pool->submit([this, &set, &slot, j, n, stride] {
            const std::size_t start = j * stride;
            slot[j] =
                countMisclassified(set, start, std::min(stride, n - start));
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
