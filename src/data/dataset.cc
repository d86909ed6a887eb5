#include "data/dataset.hh"

#include "util/logging.hh"

namespace uvolt::data
{

Dataset::Dataset(std::string name, int features, int classes)
    : name_(std::move(name)), features_(features), classes_(classes)
{
    if (features <= 0 || classes <= 1)
        fatal("Dataset '{}' needs positive features and >= 2 classes",
              name_);
}

Dataset::Dataset(std::string name, int features, int classes,
                 std::vector<float> rows, std::vector<int> labels)
    : Dataset(std::move(name), features, classes)
{
    if (rows.size() != labels.size() * static_cast<std::size_t>(features))
        fatal("{} feature values for {} samples of width {}", rows.size(),
              labels.size(), features);
    for (int label : labels) {
        if (label < 0 || label >= classes)
            fatal("label {} outside [0, {})", label, classes);
    }
    data_ = std::move(rows);
    labels_ = std::move(labels);
}

void
Dataset::add(std::span<const float> features, int label)
{
    if (static_cast<int>(features.size()) != features_)
        fatal("sample width {} != dataset width {}", features.size(),
              features_);
    if (label < 0 || label >= classes_)
        fatal("label {} outside [0, {})", label, classes_);
    data_.insert(data_.end(), features.begin(), features.end());
    labels_.push_back(label);
}

std::span<const float>
Dataset::sample(std::size_t index) const
{
    if (index >= labels_.size())
        fatal("sample {} out of dataset of {}", index, labels_.size());
    return {data_.data() + index * static_cast<std::size_t>(features_),
            static_cast<std::size_t>(features_)};
}

std::span<const float>
Dataset::samples(std::size_t first, std::size_t count) const
{
    if (first + count > labels_.size() || first + count < first)
        fatal("samples [{}, {}) out of dataset of {}", first,
              first + count, labels_.size());
    const std::size_t width = static_cast<std::size_t>(features_);
    return {data_.data() + first * width, count * width};
}

} // namespace uvolt::data
