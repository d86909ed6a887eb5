/**
 * @file
 * Dataset container for the NN benchmarks.
 *
 * The paper evaluates on MNIST (primary), Forest, and Reuters. Those
 * corpora are not redistributable inside this repository, so the data
 * module generates synthetic stand-ins with the same shapes and with
 * difficulty tuned so the trained baseline lands near the paper's
 * inherent error rates (2.56% on MNIST). See data/synthetic.hh.
 */

#ifndef UVOLT_DATA_DATASET_HH
#define UVOLT_DATA_DATASET_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace uvolt::data
{

/** A labeled classification dataset with flat row-major features. */
class Dataset
{
  public:
    Dataset() = default;

    /** @param name corpus label, @param features per-sample width. */
    Dataset(std::string name, int features, int classes);

    /**
     * Adopt a corpus built in place: @a rows holds labels.size() feature
     * rows back to back, and each label lies in [0, classes).
     */
    Dataset(std::string name, int features, int classes,
            std::vector<float> rows, std::vector<int> labels);

    const std::string &name() const { return name_; }
    int featureCount() const { return features_; }
    int classCount() const { return classes_; }
    std::size_t size() const { return labels_.size(); }

    /** Append one sample; the span must match featureCount(). */
    void add(std::span<const float> features, int label);

    /** Feature vector of sample @a index. */
    std::span<const float> sample(std::size_t index) const;

    /**
     * Contiguous feature rows of samples [first, first + count), back
     * to back in sample order — the zero-copy input of the batched
     * evaluation engine (samples are stored flat, so a batch is one
     * span of the underlying storage).
     */
    std::span<const float> samples(std::size_t first,
                                   std::size_t count) const;

    /** Label of sample @a index. */
    int label(std::size_t index) const { return labels_[index]; }

  private:
    std::string name_;
    int features_ = 0;
    int classes_ = 0;
    std::vector<float> data_;
    std::vector<int> labels_;
};

} // namespace uvolt::data

#endif // UVOLT_DATA_DATASET_HH
