/**
 * @file
 * The unified benchmark binary: every hot path of the library on one
 * UVOLT_BENCHMARK harness, one results table, and one perf-timeline
 * row (min and median ns per benchmark, plus the machine it ran on)
 * that scripts/check_perf.py gates CI with.
 *
 * Coverage: the sweep inner loop (telemetry off and on), BRAM readback
 * and device-wide fault counting at Vcrash (indexed and first of an
 * epoch), the random pattern fill, fleet fan-out at 0/1/8
 * workers, the FvmCache hit path, CRC-16 frame encode, SECDED decode,
 * k-means clustering, weight quantization, ICBP placement, MNIST
 * inference/generation, and batched evaluation on a mid-size net and on
 * the paper's net. Not a paper figure — engineering telemetry for
 * the simulator itself (the old micro_perf binary, re-homed).
 *
 * After the suite, the telemetry off/on sweep benches are compared and
 * written to results/ext_telemetry.csv: the "off" row pays only the
 * Telemetry::enabled() branch, the "on" row pays for recording.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "accel/placement.hh"
#include "accel/secded.hh"
#include "accel/weight_image.hh"
#include "data/synthetic.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "harness/timeline.hh"
#include "mem/catalog.hh"
#include "mem/sweep.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "nn/quantizer.hh"
#include "pmbus/board.hh"
#include "pmbus/serial_link.hh"
#include "util/bench.hh"
#include "util/cli.hh"
#include "util/format.hh"
#include "util/kmeans.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"
#include "study.hh"

namespace
{

using namespace uvolt;

pmbus::Board &
vc707()
{
    static pmbus::Board board(fpga::findPlatform("VC707"));
    return board;
}

/** Park the shared board at Vcrash with the reference pattern loaded. */
void
parkAtVcrash(pmbus::Board &board)
{
    board.device().fillAll(0xFFFF);
    board.setVccBramMv(board.spec().calib.bramVcrashMv);
    board.startReferenceRun();
}

UVOLT_BENCHMARK(BM_BramReadbackAtVcrash)
{
    auto &board = vc707();
    parkAtVcrash(board);
    std::vector<std::uint64_t> plane(fpga::bramWords);
    std::uint32_t bram = 0;
    for (auto _ : state) {
        bench::doNotOptimize(board.tryReadBramPacked(bram, plane).ok());
        bench::doNotOptimize(plane.data());
        bram = (bram + 1) % board.device().bramCount();
    }
    state.setBytesPerIteration(fpga::bramRows * 2);
    board.softReset();
}

/** One sweep inner-loop pass: count faults across the whole device. */
std::uint64_t
deviceFaultPass(pmbus::Board &board)
{
    return board.tryCountDeviceFaults().value();
}

UVOLT_BENCHMARK(BM_DeviceFaultCount)
{
    auto &board = vc707();
    parkAtVcrash(board);
    for (auto _ : state)
        bench::doNotOptimize(deviceFaultPass(board));
    board.softReset();
}

/**
 * A sweep run: every iteration draws fresh supply jitter, so the
 * effective voltage changes. The content epoch does not, so after the
 * first pass each count is one binary search through the built count
 * index (plus the jitter draw).
 */
UVOLT_BENCHMARK(BM_DeviceFaultCountFreshJitter)
{
    auto &board = vc707();
    parkAtVcrash(board);
    for (auto _ : state) {
        board.startRun();
        bench::doNotOptimize(board.tryCountDeviceFaults().value());
    }
    board.softReset();
}

/**
 * The first count of a content epoch: every iteration rewrites one BRAM
 * (same content, new epoch), so every count builds the device's count
 * index afresh (every ladder element against the stored content, a
 * radix sort, running totals) before its one lookup.
 */
UVOLT_BENCHMARK(BM_DeviceFaultCountFirstOfEpoch)
{
    auto &board = vc707();
    parkAtVcrash(board);
    const std::vector<std::uint64_t> ones(fpga::bramWords, ~0ull);
    std::uint32_t bram = 0;
    for (auto _ : state) {
        board.device().bram(bram).assignWords(ones);
        bench::doNotOptimize(board.tryCountDeviceFaults().value());
        bram = (bram + 1) % board.device().bramCount();
    }
    board.softReset();
}

/** A random 0.5 fill of the whole VC707 pool: one stream and one epoch
 *  bump per BRAM, 16 streams per fillBernoulliStreams pass. */
UVOLT_BENCHMARK(BM_RandomFillVc707)
{
    auto &board = vc707();
    const auto pattern = harness::PatternSpec::random(0.5, 7);
    for (auto _ : state)
        harness::fillPattern(board, pattern);
    bench::doNotOptimize(board.device().contentEpoch());
    state.setItemsPerIteration(board.device().bramCount());
}

UVOLT_BENCHMARK(BM_SweepInnerLoopTelemetryOff)
{
    auto &board = vc707();
    parkAtVcrash(board);
    telemetry::Telemetry::setEnabled(false);
    for (auto _ : state)
        bench::doNotOptimize(deviceFaultPass(board));
    board.softReset();
}

UVOLT_BENCHMARK(BM_SweepInnerLoopTelemetryOn)
{
    auto &board = vc707();
    parkAtVcrash(board);
    telemetry::Telemetry::setEnabled(true);
    for (auto _ : state)
        bench::doNotOptimize(deviceFaultPass(board));
    telemetry::Telemetry::setEnabled(false);
    board.softReset();
}

/**
 * A small but real fleet: 4 dies x 2 patterns = 8 jobs, tiny sweeps,
 * no per-BRAM maps, no ledger — the scheduling overhead and scaling of
 * FleetEngine itself, not the sweep arithmetic.
 */
harness::Campaign
fanoutCampaign()
{
    harness::Campaign campaign =
        harness::Campaign::onDevices(
            {"VC707", "ZC702", "KC705-A", "KC705-B"})
            .withPatterns({harness::PatternSpec::allOnes(),
                           harness::PatternSpec::fixed(0x0000)});
    campaign.sweep(2).stepMv(50).perBramMaps(false).ledgerUnder("");
    return campaign;
}

void
runFanout(bench::State &state, std::size_t workers)
{
    const harness::Campaign campaign = fanoutCampaign();
    if (workers == 0) {
        for (auto _ : state)
            bench::doNotOptimize(campaign.run().orFatal().jobs.size());
    } else {
        ThreadPool pool(workers);
        for (auto _ : state)
            bench::doNotOptimize(campaign.run(pool).orFatal().jobs.size());
    }
    state.setItemsPerIteration(8); // jobs per fleet run
}

UVOLT_BENCHMARK(BM_FleetFanout0Workers) { runFanout(state, 0); }
UVOLT_BENCHMARK(BM_FleetFanout1Worker) { runFanout(state, 1); }
UVOLT_BENCHMARK(BM_FleetFanout8Workers) { runFanout(state, 8); }

/**
 * The non-BRAM backends' sweep arithmetic: one iteration counts every
 * fault on the device at Vcrash with fresh jitter each pass, domain by
 * domain (no count index), streaming the generalized mask ladders.
 * HBM's ladders hold whole-lane masks, SRAM's single bits — the two
 * granularities bracket the MaskLadder popcount path.
 */
void
runMemFaultCount(bench::State &state, const char *name)
{
    const auto device = mem::makeDevice(name);
    device->fill(0xFFFF);
    const double v_crash = device->traits().vcrashMv / 1000.0;
    double wiggle = 0.0;
    for (auto _ : state) {
        std::uint64_t total = 0;
        const double v = v_crash + wiggle;
        for (std::uint32_t d = 0; d < device->domainCount(); ++d)
            total += static_cast<std::uint64_t>(
                device->countDomainFaults(d, v));
        bench::doNotOptimize(total);
        wiggle = wiggle < 1e-5 ? wiggle + 1e-7 : 0.0;
    }
    state.setItemsPerIteration(device->domainCount());
}

UVOLT_BENCHMARK(BM_HbmFaultCount) { runMemFaultCount(state, "HBM2-A"); }
UVOLT_BENCHMARK(BM_SramFaultCount)
{
    runMemFaultCount(state, "MORS-SRAM-A");
}

/** A full backend-generic sweep of one HBM stack, Vmin to Vcrash. */
UVOLT_BENCHMARK(BM_MemSweepHbm)
{
    const auto device = mem::makeDevice("HBM2-A");
    device->fill(0xFFFF);
    mem::MemSweepOptions options;
    options.runsPerLevel = 3;
    options.seed = 11;
    for (auto _ : state)
        bench::doNotOptimize(
            mem::runMemSweep(*device, options).points.size());
}

/**
 * What a served HBM/SRAM characterize pays before its first count: a
 * device over the die's shared personality (synthesized once, by the
 * warm-up) plus one fill of its content planes. Report-only: no
 * baseline row.
 */
void
runMakeDevice(bench::State &state, const char *name)
{
    for (auto _ : state) {
        const auto device = mem::makeDevice(name);
        device->fill(0xFFFF);
        bench::doNotOptimize(device->contentEpoch());
    }
}

UVOLT_BENCHMARK(BM_MakeDeviceHbm) { runMakeDevice(state, "HBM2-A"); }
UVOLT_BENCHMARK(BM_MakeDeviceSram) { runMakeDevice(state, "MORS-SRAM-A"); }

UVOLT_BENCHMARK(BM_FvmCacheHit)
{
    auto &board = vc707();
    Rng rng(11);
    std::vector<int> faults(board.device().bramCount());
    for (auto &f : faults)
        f = rng.chance(0.39) ? 0 : static_cast<int>(rng.uniformInt(1, 99));
    const auto characterize = [&]() -> Expected<harness::Fvm> {
        return harness::Fvm("bench", board.device().floorplan(), faults);
    };
    harness::FvmCache cache("results/bench_cache");
    const auto pattern = harness::PatternSpec::allOnes();
    // Prime the memory layer; every timed obtain() is then a pure hit.
    cache.obtain(board.spec(), pattern, 15, characterize).orFatal();
    for (auto _ : state) {
        bench::doNotOptimize(
            cache.obtain(board.spec(), pattern, 15, characterize)
                .orFatal()
                ->bramCount());
    }
}

UVOLT_BENCHMARK(BM_CrcFrameEncode)
{
    std::vector<std::uint16_t> row(fpga::bramRows);
    Rng rng(5);
    for (auto &word : row)
        word = static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF));
    pmbus::SerialLink link;
    for (auto _ : state) {
        const pmbus::SerialFrame frame =
            link.transfer(pmbus::SerialLink::packWords(row));
        bench::doNotOptimize(frame.crc);
    }
    state.setBytesPerIteration(fpga::bramRows * 2);
}

UVOLT_BENCHMARK(BM_SecdedDecode)
{
    constexpr std::size_t words = 1024;
    Rng rng(9);
    std::vector<std::pair<std::uint16_t, std::uint8_t>> rows(words);
    for (auto &[data, check] : rows) {
        data = static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF));
        check = accel::secdedEncode(data);
        if (rng.chance(0.1)) // a sprinkle of single-bit upsets
            data ^= static_cast<std::uint16_t>(
                1u << rng.uniformInt(0, 15));
    }
    for (auto _ : state) {
        std::uint32_t corrected = 0;
        for (const auto &[data, check] : rows)
            corrected += accel::secdedDecode(data, check).status ==
                         accel::SecdedStatus::Corrected;
        bench::doNotOptimize(corrected);
    }
    state.setItemsPerIteration(words);
}

UVOLT_BENCHMARK(BM_KMeansClustering)
{
    Rng rng(7);
    std::vector<double> rates(2060);
    for (auto &rate : rates)
        rate = rng.chance(0.39) ? 0.0 : rng.exponential(100.0);
    for (auto _ : state)
        bench::doNotOptimize(kMeans1d(rates, 3));
}

UVOLT_BENCHMARK(BM_QuantizeMnistModel)
{
    nn::Network net({784, 1024, 512, 256, 128, 10});
    net.initWeights(1);
    for (auto _ : state)
        bench::doNotOptimize(nn::quantize(net));
}

UVOLT_BENCHMARK(BM_IcbpPlacement)
{
    nn::Network net({784, 1024, 512, 256, 128, 10});
    net.initWeights(1);
    const accel::WeightImage image(nn::quantize(net));
    std::vector<int> faults(2060);
    Rng rng(3);
    for (auto &f : faults)
        f = rng.chance(0.39) ? 0 : static_cast<int>(rng.uniformInt(1, 99));
    const harness::Fvm fvm(
        "bench", vc707().device().floorplan(), std::move(faults));
    for (auto _ : state)
        bench::doNotOptimize(accel::icbpPlacement(image, fvm));
}

UVOLT_BENCHMARK(BM_MnistInference)
{
    static const nn::Network net = [] {
        nn::Network n({784, 1024, 512, 256, 128, 10});
        n.initWeights(1);
        return n;
    }();
    static const data::Dataset set = data::makeMnistLike(64, 5);
    std::size_t i = 0;
    for (auto _ : state) {
        bench::doNotOptimize(net.classify(set.sample(i)));
        i = (i + 1) % set.size();
    }
    state.setItemsPerIteration(1);
}

UVOLT_BENCHMARK(BM_MnistGeneration)
{
    std::uint64_t seed = 0;
    for (auto _ : state)
        bench::doNotOptimize(data::makeMnistLike(32, ++seed));
    state.setItemsPerIteration(32);
}

/**
 * The held-out set every NN study and nn_icbp's set-up build:
 * makeTestSet(paperMnistSpec()), 10,000 images, so past
 * data::mnistParallelMin and rendered on the worker pool (the 32-image
 * row above stays on the inline path). Report-only: no baseline row.
 */
UVOLT_BENCHMARK(BM_MnistPaperTestSet)
{
    const nn::ZooSpec spec = nn::paperMnistSpec();
    for (auto _ : state)
        bench::doNotOptimize(nn::makeTestSet(spec));
    state.setItemsPerIteration(10000);
}

/**
 * The batched-evaluation tentpole: one iteration is one full
 * 10 000-image evaluateError() pass over a shared synthetic MNIST set
 * with a mid-size MLP. Three variants share net and data so their
 * ratios isolate the engine: the per-sample scalar reference, the
 * blocked/vectorized batched kernel, and the batched kernel fanned over
 * an 8-worker pool. All three return bit-identical error rates; the
 * perf gate tracks each one and the speedup is asserted in CI via the
 * committed baseline.
 */
const nn::Network &
evalNet()
{
    static const nn::Network net = [] {
        nn::Network n({784, 256, 128, 10});
        n.initWeights(1);
        return n;
    }();
    return net;
}

const data::Dataset &
evalSet()
{
    static const data::Dataset set = data::makeMnistLike(10000, 5);
    return set;
}

UVOLT_BENCHMARK(BM_MnistEvalScalar)
{
    const nn::Network &net = evalNet();
    const data::Dataset &set = evalSet();
    for (auto _ : state)
        bench::doNotOptimize(net.evaluateErrorScalar(set));
    state.setItemsPerIteration(set.size());
}

UVOLT_BENCHMARK(BM_MnistEvalBatched)
{
    const nn::Network &net = evalNet();
    const data::Dataset &set = evalSet();
    for (auto _ : state)
        bench::doNotOptimize(net.evaluateError(set, nn::EvalOptions{}));
    state.setItemsPerIteration(set.size());
}

UVOLT_BENCHMARK(BM_MnistEvalBatched8Workers)
{
    const nn::Network &net = evalNet();
    const data::Dataset &set = evalSet();
    ThreadPool pool(8);
    for (auto _ : state) {
        bench::doNotOptimize(
            net.evaluateError(set, nn::EvalOptions{.pool = &pool}));
    }
    state.setItemsPerIteration(set.size());
}

/**
 * The paper's Table III net (784-1024-512-256-128-10) on 256 synthetic
 * images with default options: the kernel the Fig 14 curve and the
 * benchmark's nn_icbp workload spend their time in, so its ns per
 * image predicts nn.eval.us_per_image where the mid-size rows above
 * cannot.
 */
UVOLT_BENCHMARK(BM_PaperMnistEval)
{
    static const nn::Network net = [] {
        nn::Network n(nn::paperMnistSpec().topology);
        n.initWeights(1);
        return n;
    }();
    static const data::Dataset set = data::makeMnistLike(256, 5);
    for (auto _ : state)
        bench::doNotOptimize(net.evaluateError(set, nn::EvalOptions{}));
    state.setItemsPerIteration(set.size());
}

const bench::BenchResult *
findResult(const std::vector<bench::BenchResult> &results,
           const std::string &name)
{
    for (const auto &result : results)
        if (result.name == name)
            return &result;
    return nullptr;
}

/**
 * The telemetry-overhead comparison micro_perf used to print: min
 * ns/iter of the sweep inner loop with recording off vs on, written to
 * results/ext_telemetry.csv when both benches ran.
 */
void
writeTelemetryComparison(const std::vector<bench::BenchResult> &results)
{
    const auto *off = findResult(results, "BM_SweepInnerLoopTelemetryOff");
    const auto *on = findResult(results, "BM_SweepInnerLoopTelemetryOn");
    if (!off || !on || off->wall.minNs <= 0.0)
        return;
    TextTable table({"telemetry", "best pass (ms)", "vs off"});
    table.addRow({"off", fmtDouble(off->wall.minNs / 1e6, 3), "1.000x"});
    table.addRow({"on", fmtDouble(on->wall.minNs / 1e6, 3),
                  strFormat("{:.3f}x", on->wall.minNs / off->wall.minNs)});
    std::printf("\n# sweep inner loop, telemetry off vs on (device-wide "
                "fault count at Vcrash)\n");
    table.print(std::cout);
    writeCsv(table, "results/ext_telemetry.csv");
}

void
declareFlags(CliParser &cli)
{
    cli.addInt("repeats", 9, "timed repeats per benchmark");
    cli.addDouble("min-time-ms", 20.0,
                  "calibrated minimum time per repeat");
    cli.addString("filter", "", "substring filter on benchmark names");
    cli.addBool("list", "list registered benchmarks and exit");
    cli.addString("timeline", harness::Timeline::defaultPath(),
                  "perf-timeline JSONL to append to (\"\" disables)");
}

} // namespace

UVOLT_STUDY(bench_all, declareFlags)
{
    if (cli.getBool("list")) {
        for (const auto &name : bench::Registry::global().names())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    bench::BenchOptions options;
    options.repeats = static_cast<int>(cli.getInt("repeats"));
    options.minTimeMs = cli.getDouble("min-time-ms");
    options.filter = cli.getString("filter");
    const bool telemetry_on = telemetry::Telemetry::enabled();
    const std::vector<bench::BenchResult> results =
        bench::Registry::global().runAll(options);
    if (results.empty()) {
        std::fprintf(stderr, "no benchmark matches filter '%s'\n",
                     options.filter.c_str());
        return 1;
    }

    bench::resultsTable(results).print(std::cout);
    writeTelemetryComparison(results);

    // One row per suite run, keyed by benchmark name. It is built after
    // the timed runs: heap traffic before them moves where the NN
    // benchmarks' buffers land, and with them BM_QuantizeMnistModel's
    // time by about a third. The telemetry benches leave recording off;
    // the row records the state the process was started with.
    telemetry::Telemetry::setEnabled(telemetry_on);
    harness::TimelineRow row = harness::TimelineRow::start(
        "bench_all",
        strFormat("bench_all;repeats={};min_time_ms={};filter={}",
                  options.repeats, options.minTimeMs, options.filter));
    row.workers = 1;
    row.metrics = bench::timelineMetrics(results);
    for (const auto &result : results)
        row.durationMs += result.wall.medianNs / 1e6;
    std::printf("\n");
    harness::Timeline::record(cli.getString("timeline"), row);
    return 0;
}
