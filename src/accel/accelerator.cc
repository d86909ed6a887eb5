#include "accel/accelerator.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace uvolt::accel
{

namespace
{

struct AccelMetrics
{
    telemetry::Counter &inferences =
        telemetry::Registry::global().counter("accel.inferences");
    telemetry::Counter &weightFaults =
        telemetry::Registry::global().counter("accel.weight_faults");
    telemetry::Counter &crashRecoveries =
        telemetry::Registry::global().counter("accel.crash_recoveries");
    telemetry::Counter &decodeCacheHits =
        telemetry::Registry::global().counter("accel.decode_cache.hits");
    telemetry::Counter &decodeCacheMisses =
        telemetry::Registry::global().counter("accel.decode_cache.misses");
};

AccelMetrics &
accelMetrics()
{
    static AccelMetrics metrics;
    return metrics;
}

} // namespace

std::vector<std::uint64_t>
readBramRecovering(pmbus::Board &board, std::uint32_t physical,
                   const std::function<void()> &restore)
{
    constexpr int max_recoveries = 16;
    for (int attempt = 0; attempt <= max_recoveries; ++attempt) {
        auto observed = board.tryReadBramPacked(physical);
        if (observed.ok())
            return observed.take();
        if (observed.code() != Errc::crashDetected)
            fatal("{}", observed.error().message);
        const int level_mv = board.vccBramMv();
        const double jitter_v = board.runJitterV();
        board.softReset();
        restore();
        board.setVccBramMv(level_mv);
        board.resumeRun(jitter_v);
    }
    fatal("{}: readback of BRAM {} crashed {} times in a row",
          board.spec().name, physical, max_recoveries);
}

Accelerator::Accelerator(pmbus::Board &board, WeightImage image,
                         Placement placement)
    : board_(board), image_(std::move(image)),
      placement_(std::move(placement))
{
    if (placement_.logicalCount() != image_.logicalBramCount())
        fatal("placement covers {} BRAMs, image needs {}",
              placement_.logicalCount(), image_.logicalBramCount());
    if (!placement_.fits(board_.device().bramCount()))
        fatal("placement does not fit the {} device",
              board_.spec().name);
    program();
}

void
Accelerator::program()
{
    restoreImage();
    // The device contents just changed epochs; cached readbacks (ours
    // or of whatever overwrote the BRAMs before this re-program) no
    // longer describe them.
    ++programGeneration_;
    cache_.reset();
}

void
Accelerator::restoreImage() const
{
    for (std::uint32_t logical = 0; logical < image_.logicalBramCount();
         ++logical) {
        auto &bram = board_.device().bram(placement_.physicalOf(logical));
        bram.assignWords(image_.wordsOf(logical));
    }
}

const Accelerator::Observation &
Accelerator::observed() const
{
    const int mv = board_.vccBramMv();
    const double effective = board_.effectiveVoltage();
    if (cache_ && cache_->vccBramMv == mv &&
        cache_->effectiveVoltage == effective &&
        cache_->generation == programGeneration_) {
        ++cacheHits_;
        accelMetrics().decodeCacheHits.increment();
        return *cache_;
    }

    UVOLT_TRACE_SCOPE("accel.observe_model", [&] {
        return telemetry::TraceArgs{
            {"brams", std::to_string(image_.logicalBramCount())},
            {"mv", std::to_string(mv)}};
    });
    accelMetrics().decodeCacheMisses.increment();
    std::vector<std::vector<std::uint64_t>> words;
    words.reserve(image_.logicalBramCount());
    const std::function<void()> recover = [this] {
        ++crashRecoveries_;
        accelMetrics().crashRecoveries.increment();
        restoreImage();
    };
    for (std::uint32_t logical = 0; logical < image_.logicalBramCount();
         ++logical) {
        words.push_back(readBramRecovering(
            board_, placement_.physicalOf(logical), recover));
    }
    nn::QuantizedModel model = image_.decode(words);
    nn::Network network = model.toNetwork();
    cache_.emplace(Observation{mv, effective, programGeneration_,
                               std::move(words), std::move(model),
                               std::move(network)});
    return *cache_;
}

nn::QuantizedModel
Accelerator::observedModel() const
{
    return observed().model;
}

nn::Network
Accelerator::observedNetwork() const
{
    return observed().network;
}

WeightFaultReport
Accelerator::weightFaults() const
{
    const Observation &observation = observed();
    WeightFaultReport report;
    report.faultsPerLayer.assign(image_.layerSpans().size(), 0);

    for (const LayerSpan &span : image_.layerSpans()) {
        for (std::uint32_t b = 0; b < span.bramCount; ++b) {
            const std::uint32_t logical = span.firstLogicalBram + b;
            const std::uint64_t faults = fpga::diffPopcount(
                observation.words[static_cast<std::size_t>(logical)],
                image_.wordsOf(logical));
            report.faultsPerLayer[static_cast<std::size_t>(span.layer)] +=
                faults;
            report.total += faults;
        }
    }
    accelMetrics().weightFaults.add(report.total);
    return report;
}

double
Accelerator::classificationError(const data::Dataset &test_set,
                                 std::size_t limit) const
{
    return classificationError(test_set, nn::EvalOptions{.limit = limit});
}

double
Accelerator::classificationError(const data::Dataset &test_set,
                                 const nn::EvalOptions &options) const
{
    UVOLT_TRACE_SCOPE("accel.classify", [&] {
        return telemetry::TraceArgs{
            {"mv", std::to_string(board_.vccBramMv())}};
    });
    const std::size_t n = options.limit
        ? std::min(options.limit, test_set.size())
        : test_set.size();
    accelMetrics().inferences.add(n);
    // The decoded observation is reused across calls at one operating
    // point; the evaluation itself runs through the batched engine.
    return observed().network.evaluateError(test_set, options);
}

} // namespace uvolt::accel
