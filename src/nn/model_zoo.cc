#include "nn/model_zoo.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>

#include "data/synthetic.hh"
#include "util/format.hh"
#include "util/fsio.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace uvolt::nn
{

std::string
ZooSpec::cacheKey() const
{
    std::uint64_t h = hashSeed(benchmark);
    for (int size : topology)
        h = combineSeeds(h, static_cast<std::uint64_t>(size));
    h = combineSeeds(h, trainCount);
    h = combineSeeds(h, dataSeed);
    h = combineSeeds(h, static_cast<std::uint64_t>(train.epochs));
    h = combineSeeds(h, static_cast<std::uint64_t>(
                            train.learningRate * 1e6));
    h = combineSeeds(h, static_cast<std::uint64_t>(train.momentum * 1e6));
    h = combineSeeds(h, static_cast<std::uint64_t>(train.lrDecay * 1e6));
    // Weight decay: training uses none, hashed as 0 so the keys of the
    // committed models stay valid.
    h = combineSeeds(h, 0);
    h = combineSeeds(h, train.seed);
    h = combineSeeds(h, static_cast<std::uint64_t>(refine.epochs));
    h = combineSeeds(h, static_cast<std::uint64_t>(
                            refine.learningRate * 1e6));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

ZooSpec
paperMnistSpec()
{
    ZooSpec spec;
    spec.benchmark = "mnist";
    spec.topology = {784, 1024, 512, 256, 128, 10};
    spec.trainCount = 8000;
    spec.dataSeed = 14; // corpus v4: ghost-overlay ambiguity continuum
    spec.train.epochs = 6;
    // The 6-layer logsig stack needs a gentle step: lr 0.003 with 0.9
    // momentum reaches the paper's ~2.5% inherent error; 0.05 diverges.
    spec.train.learningRate = 0.003;
    spec.train.momentum = 0.9;
    spec.train.lrDecay = 0.85;
    spec.train.seed = 7;
    // Output-layer logsig+MSE refinement: reproduces the paper's Fig 9
    // weight distribution (Layer4 grows a 4-bit digit field) and with
    // it the output layer's dominant fault sensitivity (Fig 13).
    spec.refine.epochs = 1000;
    spec.refine.learningRate = 0.02;
    return spec;
}

ZooSpec
paperForestSpec()
{
    ZooSpec spec;
    spec.benchmark = "forest";
    spec.topology = {54, 256, 128, 64, 7};
    spec.trainCount = 8000;
    spec.dataSeed = 21;
    spec.train.epochs = 8;
    spec.train.learningRate = 0.03;
    spec.train.momentum = 0.9;
    spec.train.lrDecay = 0.8;
    spec.train.seed = 17;
    spec.refine.epochs = 600;
    spec.refine.learningRate = 0.02;
    return spec;
}

ZooSpec
paperReutersSpec()
{
    ZooSpec spec;
    spec.benchmark = "reuters";
    spec.topology = {600, 256, 128, 64, 8};
    spec.trainCount = 6000;
    spec.dataSeed = 32; // corpus v2: overlapping topics
    spec.train.epochs = 8;
    spec.train.learningRate = 0.03;
    spec.train.momentum = 0.9;
    spec.train.lrDecay = 0.8;
    spec.train.seed = 27;
    spec.refine.epochs = 600;
    spec.refine.learningRate = 0.02;
    return spec;
}

namespace
{

data::Dataset
makeSet(const ZooSpec &spec, std::size_t count, std::uint64_t seed)
{
    if (spec.benchmark == "mnist")
        return data::makeMnistLike(count, seed);
    if (spec.benchmark == "forest")
        return data::makeForestLike(count, seed);
    if (spec.benchmark == "reuters")
        return data::makeReutersLike(count, seed);
    fatal("unknown benchmark '{}'", spec.benchmark);
}

} // namespace

data::Dataset
makeTrainSet(const ZooSpec &spec)
{
    return makeSet(spec, spec.trainCount, spec.dataSeed);
}

data::Dataset
makeTestSet(const ZooSpec &spec, std::size_t count)
{
    // Disjoint stream: the test seed is derived, never equal to the
    // training seed.
    return makeSet(spec, count,
                   combineSeeds(spec.dataSeed, hashSeed("held-out")));
}

std::string
cacheDirectory()
{
    if (const char *dir = std::getenv("UVOLT_CACHE_DIR"))
        return dir;
    return "uvolt_model_cache";
}

namespace
{

constexpr std::uint32_t zooMagic = 0x55564E4E; // "UVNN"
constexpr std::uint32_t zooVersion = 1;

} // namespace

bool
saveNetwork(const Network &net, const std::string &path)
{
    std::string bytes;
    const auto put = [&bytes](std::span<const float> values) {
        bytes.append(reinterpret_cast<const char *>(values.data()),
                     values.size_bytes());
    };
    const auto put32 = [&bytes](std::uint32_t value) {
        bytes.append(reinterpret_cast<const char *>(&value),
                     sizeof(value));
    };
    put32(zooMagic);
    put32(zooVersion);
    put32(static_cast<std::uint32_t>(net.layerSizes().size()));
    for (int size : net.layerSizes())
        put32(static_cast<std::uint32_t>(size));
    for (int l = 0; l < net.layerCount(); ++l) {
        put(net.layer(l).weights());
        put(net.layer(l).biases());
    }
    // Crash-atomic, like every other persisted artifact: a crash
    // mid-write must never leave a truncated model in the cache.
    if (auto written = writeFileAtomic(path, bytes); !written.ok()) {
        warn("model cache: {}", written.error().message);
        return false;
    }
    return true;
}

bool
loadNetwork(Network &net, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    auto get32 = [&in]() {
        std::uint32_t value = 0;
        in.read(reinterpret_cast<char *>(&value), sizeof(value));
        return value;
    };
    if (get32() != zooMagic || get32() != zooVersion)
        return false;
    const std::uint32_t size_count = get32();
    if (size_count != net.layerSizes().size())
        return false;
    for (int size : net.layerSizes()) {
        if (get32() != static_cast<std::uint32_t>(size))
            return false;
    }
    for (int l = 0; l < net.layerCount(); ++l) {
        auto &layer = net.layer(l);
        in.read(reinterpret_cast<char *>(layer.weights().data()),
                static_cast<std::streamsize>(
                    layer.weights().size() * sizeof(float)));
        in.read(reinterpret_cast<char *>(layer.biases().data()),
                static_cast<std::streamsize>(
                    layer.biases().size() * sizeof(float)));
    }
    // The last bias ends the file: trailing bytes mean a different
    // writer or a damaged file.
    return in && in.peek() == std::ifstream::traits_type::eof();
}

Network
trainOrLoad(const ZooSpec &spec)
{
    Network net(spec.topology);
    const std::string path = strFormat("{}/{}-{}.nnw", cacheDirectory(),
                                       spec.benchmark, spec.cacheKey());
    if (loadNetwork(net, path)) {
        inform("model zoo: loaded {} from {}", spec.benchmark, path);
        return net;
    }
    inform("model zoo: training {} ({} weights, {} samples, {} epochs)...",
           spec.benchmark, net.totalWeights(), spec.trainCount,
           spec.train.epochs);
    const data::Dataset train_set = makeTrainSet(spec);
    TrainOptions options = spec.train;
    options.verbose = true;
    const TrainReport report = train(net, train_set, options);
    inform("model zoo: {} trained to {:.4f} train error", spec.benchmark,
           report.finalTrainError);
    if (spec.refine.epochs > 0) {
        const TrainReport refined =
            finetuneOutputMse(net, train_set, spec.refine);
        inform("model zoo: {} output refined over {} epochs to {:.4f} "
               "train error",
               spec.benchmark, refined.epochs, refined.finalTrainError);
    }
    saveNetwork(net, path);
    return net;
}

} // namespace uvolt::nn
