/**
 * @file
 * Fully-connected feed-forward network (the paper's Table III model).
 *
 * The baseline is a 6-layer topology (784, 1024, 512, 256, 128, 10):
 * logistic-sigmoid ("logsig") activations on the hidden layers and a
 * softmax output that yields the class distribution. This module holds
 * the float reference model used for training and as the fault-free
 * accuracy baseline; the fixed-point, BRAM-backed version lives in the
 * accel module.
 */

#ifndef UVOLT_NN_NETWORK_HH
#define UVOLT_NN_NETWORK_HH

#include <span>
#include <vector>

#include "data/dataset.hh"

namespace uvolt
{
class ThreadPool;
}

namespace uvolt::nn
{

/**
 * exp(x) in float, bit-identical to glibc 2.36's expf on an FMA host
 * (checked on every finite float; see EXPERIMENTS.md). It is the
 * repo's own, built from correctly rounded steps, so training and
 * inference give the same bits whatever libm the host links.
 */
float expf(float x);

/**
 * Logistic sigmoid, the paper's hidden activation: 1 / (1 + expf(-x)).
 * Both are branch-free, and the hidden-layer loops of infer() and the
 * batched engine inline them and vectorize. Each vector lane does the
 * IEEE operations of a scalar call, so the bits are the same.
 */
float logsig(float x);

/** In-place softmax over a span of logits (through expf()). */
void softmaxInPlace(std::span<float> logits);

/** One dense (fully-connected) weight layer. */
class DenseLayer
{
  public:
    DenseLayer(int inputs, int outputs);

    int inputs() const { return inputs_; }
    int outputs() const { return outputs_; }

    float bias(int output) const { return biases_[
        static_cast<std::size_t>(output)]; }

    /** Flat storage access (used by the quantizer and the accelerator). */
    std::span<const float> weights() const { return weights_; }
    std::span<float> weights() { return weights_; }
    std::span<const float> biases() const { return biases_; }
    std::span<float> biases() { return biases_; }

    /**
     * z = W x + b. @a z must have outputs() entries. Each output starts
     * from its bias and takes acc = std::fma(w[o][i], x[i], acc) for
     * every input in ascending order. This plain loop is the executable
     * spec that forwardBatch() matches bit for bit.
     */
    void forward(std::span<const float> x, std::span<float> z) const;

    /**
     * Batched forward: Z = W X + b over @a batch samples at once.
     *
     * @a x is the inputs() x batch activation matrix with sample s in
     * column s and the batch dimension contiguous (element (i, s) at
     * x[i * batch + s]); @a z is the outputs() x batch result in the
     * same layout. The kernel is register-blocked: it holds an 8-output
     * x 32-column tile of accumulators in registers and streams the
     * tile's weight rows and activation strip through it. Strips of 32
     * columns run first, then 16, then 8, then single columns; output
     * rows left over after the 8-row tiles run one at a time.
     *
     * Bit-identical per column to forward(): every (output, sample)
     * accumulator is seeded with its bias and updated with one std::fma
     * per input in ascending order, exactly the scalar chain. The tiles
     * only interleave independent accumulators.
     */
    void forwardBatch(std::span<const float> x, std::span<float> z,
                      int batch) const;

    /** Largest absolute weight (per-layer precision analysis, Fig 9). */
    float maxAbsWeight() const;

  private:
    int inputs_;
    int outputs_;
    std::vector<float> weights_;
    std::vector<float> biases_;
};

/**
 * The sample count shared by every sampled accuracy study (precision
 * sweep, per-layer vulnerability): one consistent evalLimit so their
 * error numbers are computed on the same prefix of the test set and
 * stay comparable across figures.
 */
inline constexpr std::size_t paperEvalLimit = 2500;

/**
 * Test-set columns per forwardBatch() call in evaluateError(), and the
 * width of the serving tier's coalesced classify blocks: two full
 * 32-column strips of the forwardBatch() kernel. In
 * BM_MnistEvalBatched, 32 and 64 measured within each other's spread
 * and 16 and 128 were slower (EXPERIMENTS.md). Results are
 * bit-identical at any width, so this is a speed constant only.
 */
inline constexpr int evalBatch = 64;

/**
 * Options of the batched evaluation engine.
 *
 * `limit` follows the evaluateError() convention: 0 means the whole
 * set, and a limit larger than the set silently clamps to the set size
 * (both spellings of "everything" are deliberate — see
 * Network::evaluateError). A non-null `pool` fans the evalBatch-column
 * batches out over its workers; each batch writes its
 * misclassification count into a pre-assigned slot and the reduction
 * sums the slots in plan order, so the result is bit-identical at any
 * worker count (a 0-worker pool runs the same code inline).
 */
struct EvalOptions
{
    std::size_t limit = 0; ///< 0 = whole set; > size clamps to size
    ThreadPool *pool = nullptr; ///< fan batches out; null = this thread
};

/** The full network. */
class Network
{
  public:
    /**
     * @param layer_sizes neuron counts per layer, length >= 2; e.g. the
     * paper's {784, 1024, 512, 256, 128, 10}.
     */
    explicit Network(std::vector<int> layer_sizes);

    /** Number of weight layers (layer_sizes.size() - 1). */
    int layerCount() const { return static_cast<int>(layers_.size()); }

    DenseLayer &layer(int index);
    const DenseLayer &layer(int index) const;

    const std::vector<int> &layerSizes() const { return sizes_; }

    /** Total weight parameters (~1.5 M for the paper's topology). */
    std::size_t totalWeights() const;

    /** Glorot-uniform weight initialization, deterministic in seed. */
    void initWeights(std::uint64_t seed);

    /**
     * Forward pass: hidden layers through logsig, output through
     * softmax. Returns the class distribution.
     */
    std::vector<float> infer(std::span<const float> input) const;

    /** Arg-max classification. */
    int classify(std::span<const float> input) const;

    /**
     * Batched inference: class distributions for @a batch samples.
     * @a inputs holds the samples back to back in dataset order (sample
     * s at inputs[s * inputFeatures]), @a probs receives the
     * distributions back to back (sample s at probs[s * classCount]).
     * Column results are bit-identical to infer() on each sample.
     *
     * The test seam of the batched kernel: no workload calls it, but it
     * is the one entry point that exposes the kernel's class
     * distributions, which the one-ulp activation probes need
     * (classifyScattered() returns only arg-max classes).
     */
    void inferBatch(std::span<const float> inputs,
                    std::span<float> probs, int batch) const;

    /**
     * Batched arg-max classification for request coalescing: each
     * entry of @a samples is one sample's feature vector, living
     * wherever its owner put it (a serving layer packs one block from
     * many clients' buffers without copying them into a contiguous
     * staging area first). The samples are gathered straight into the
     * kernel's feature-major layout and run through the batched stack,
     * so the result is bit-identical to classify() per sample.
     * @a classes must have samples.size() slots; every sample must
     * have input-layer width.
     */
    void classifyScattered(std::span<const std::span<const float>> samples,
                           std::span<int> classes) const;

    /**
     * Classification error on a dataset (fraction mis-classified),
     * computed by the batched engine with default options — see the
     * EvalOptions overload. Bit-identical to evaluateErrorScalar().
     *
     * @param limit evaluate only the first @a limit samples. Both
     * limit == 0 and limit > set.size() mean "the whole set"; callers
     * that want a fixed sample budget across figures should pass
     * paperEvalLimit explicitly rather than relying on either spelling.
     */
    double evaluateError(const data::Dataset &set,
                         std::size_t limit = 0) const;

    /**
     * Batched, optionally parallel classification error. Splits the
     * evaluated prefix into evalBatch-column batches, runs
     * each through forwardBatch(), and reduces the per-batch
     * misclassification counts in plan order (integer sum — exact at
     * any worker count). fatal() on an empty evaluation set.
     */
    double evaluateError(const data::Dataset &set,
                         const EvalOptions &options) const;

    /**
     * Scalar reference path: classify() sample by sample. The batched
     * engine is verified bit-identical against this in tests and CI;
     * it exists as the ground truth, not as a fast path.
     */
    double evaluateErrorScalar(const data::Dataset &set,
                               std::size_t limit = 0) const;

  private:
    /** Misclassified count over samples [first, first + count). */
    std::size_t countMisclassified(const data::Dataset &set,
                                   std::size_t first,
                                   std::size_t count) const;

    std::vector<int> sizes_;
    std::vector<DenseLayer> layers_;
};

} // namespace uvolt::nn

#endif // UVOLT_NN_NETWORK_HH
