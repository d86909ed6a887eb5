/**
 * @file
 * Workload `nn_icbp`: the Fig 14 MNIST curve on VC707. Set-up is the
 * paper's pre-process stage (load the cached model, quantize, build
 * the test set, extract the FVM from a 5-run critical sweep); the timed
 * part steps VCCBRAM from Vmin to Vcrash in 10 mV steps and, for a
 * random and an ICBP placement, programs the accelerator, reads the
 * weights back and classifies the first 4000 test images on one thread.
 */

#include <fstream>
#include <optional>
#include <sstream>

#include "accel/accelerator.hh"
#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "common.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "nn/model_zoo.hh"
#include "nn/quantizer.hh"
#include "pmbus/board.hh"
#include "util/table.hh"

namespace perfbench
{

using namespace uvolt;

namespace
{

constexpr std::size_t evalLimit = 4000;  ///< fig14's evaluation shape
constexpr std::size_t checkSamples = 64; ///< batched-vs-scalar subset
constexpr std::uint64_t goldenSeed = 5;  ///< fig14's random placement
const char *goldenPath = "goldens/fig14_mnist.csv";

struct Names
{
    NameId load = spanName("nn.load");
    NameId quantize = spanName("nn.quantize");
    NameId testset = spanName("data.testset");
    NameId image = spanName("accel.image");
    NameId fvm = spanName("harness.fvm");
    NameId placement = spanName("accel.placement");
    NameId setpoint = spanName("pmbus.setpoint");
    NameId program = spanName("accel.program");
    NameId readback = spanName("accel.readback");
    NameId eval = spanName("nn.eval");
    NameId check = spanName("bench.check");
};

/** One (level, placement) point of the curve. */
struct CurvePoint
{
    int mv = 0;
    double error = 0.0;
    std::uint64_t faults = 0;
};

/** One timed curve. */
struct Curve
{
    std::vector<CurvePoint> points[2]; ///< [random, ICBP]
    std::vector<double> pointMs;       ///< program + readback + eval
    double wallS = 0.0;                ///< whole loop, checks included
    double checkS = 0.0;               ///< checks inside the loop
    std::uint64_t cacheHits = 0;       ///< decoded-observation cache
    std::uint64_t readCalls = 0;       ///< weightFaults + eval calls

    double curveS() const { return wallS - checkS; }
};

struct Fixture
{
    std::optional<nn::QuantizedModel> model;
    std::optional<data::Dataset> testSet;
    std::optional<accel::WeightImage> image;
    std::optional<pmbus::Board> board;
    std::optional<harness::Fvm> fvm;
};

void
setUp(Fixture &fx, const Names &names)
{
    const nn::ZooSpec spec = nn::paperMnistSpec();
    std::optional<nn::Network> net;
    {
        Scope span(names.load);
        net.emplace(nn::trainOrLoad(spec));
    }
    {
        Scope span(names.quantize);
        fx.model.emplace(nn::quantize(*net));
    }
    {
        Scope span(names.testset);
        fx.testSet.emplace(nn::makeTestSet(spec));
    }
    {
        Scope span(names.image);
        fx.image.emplace(*fx.model);
    }
    Scope span(names.fvm);
    fx.board.emplace(fpga::findPlatform("VC707"));
    harness::SweepOptions sweep_options;
    sweep_options.runsPerLevel = 5;
    const harness::SweepResult sweep =
        harness::runCriticalSweep(*fx.board, sweep_options);
    fx.fvm.emplace(harness::fvmFromSweep(sweep, fx.board->device().floorplan()));
}

Curve
runCurve(Fixture &fx, std::uint64_t seed, const Names &names, Result &result)
{
    Curve curve;
    pmbus::Board &board = *fx.board;
    const auto &calib = board.spec().calib;
    const std::uint64_t start = nowNs();
    std::optional<accel::Placement> placements[2];
    {
        Scope span(names.placement);
        placements[0].emplace(accel::randomPlacement(
            *fx.image, fx.fvm->bramCount(), seed));
        placements[1].emplace(accel::icbpPlacement(*fx.image, *fx.fvm));
    }
    for (int mv = calib.bramVminMv; mv >= calib.bramVcrashMv; mv -= 10) {
        {
            Scope span(names.setpoint);
            board.setVccBramMv(mv);
            board.startReferenceRun();
        }
        for (int c = 0; c < 2; ++c) {
            const std::uint64_t point_start = nowNs();
            std::optional<accel::Accelerator> accel;
            {
                Scope span(names.program);
                accel.emplace(board, *fx.image, *placements[c]);
            }
            CurvePoint point;
            point.mv = mv;
            {
                Scope span(names.readback);
                point.faults = accel->weightFaults().total;
            }
            {
                Scope span(names.eval);
                point.error = accel->classificationError(*fx.testSet,
                                                         evalLimit);
            }
            curve.pointMs.push_back(secondsSince(point_start) * 1e3);
            curve.cacheHits += accel->observationCacheHits();
            curve.readCalls += 2;
            curve.points[c].push_back(point);
            ++result.attempted;

            // Untimed: the batched engine against the scalar reference
            // on a fixed subset, with the weights this point observed.
            const std::uint64_t check_start = nowNs();
            Scope span(names.check);
            const nn::Network observed = accel->observedNetwork();
            const double batched =
                observed.evaluateError(*fx.testSet, checkSamples);
            const double scalar =
                observed.evaluateErrorScalar(*fx.testSet, checkSamples);
            if (batched != scalar)
                result.fail("batched error differs from evaluateErrorScalar "
                            "at " + std::to_string(mv) + " mV");
            curve.checkS += secondsSince(check_start);
        }
    }
    curve.wallS = secondsSince(start);
    return curve;
}

/** Rows of the golden CSV, keyed by their voltage cell. */
std::vector<std::vector<std::string>>
readGolden(const std::string &path)
{
    std::vector<std::vector<std::string>> rows;
    std::ifstream in(path);
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        std::vector<std::string> cells;
        std::stringstream row(line);
        std::string cell;
        while (std::getline(row, cell, ','))
            cells.push_back(cell);
        rows.push_back(cells);
    }
    return rows;
}

void
checkCurve(const Fixture &fx, const Curve &curve, const Options &options,
           Result &result)
{
    // At the fault-free Vmin point both placements see the quantized
    // model's inherent error.
    const double inherent =
        fx.model->toNetwork().evaluateError(*fx.testSet, evalLimit);
    for (int c = 0; c < 2; ++c) {
        const CurvePoint &vmin = curve.points[c].front();
        if (vmin.faults != 0 || vmin.error != inherent)
            result.fail("Vmin point of placement " + std::to_string(c) +
                        " has " + std::to_string(vmin.faults) +
                        " faults and error " + fmtPercent(vmin.error, 2) +
                        ", inherent error " + fmtPercent(inherent, 2));
    }

    // Both error columns against the fig14 golden: the ICBP column at
    // every seed, the random-placement column at fig14's own seed.
    const auto golden = readGolden(goldenPath);
    if (golden.size() != curve.points[0].size()) {
        result.fail(std::string("golden ") + goldenPath + " has " +
                    std::to_string(golden.size()) + " rows, curve has " +
                    std::to_string(curve.points[0].size()));
        return;
    }
    for (std::size_t i = 0; i < golden.size(); ++i) {
        std::vector<std::string> row{
            fmtVolts(curve.points[0][i].mv / 1000.0),
            fmtPercent(curve.points[0][i].error, 2),
            std::to_string(curve.points[0][i].faults),
            fmtPercent(curve.points[1][i].error, 2),
            std::to_string(curve.points[1][i].faults)};
        if (options.wrongExpected && i == 0)
            row[3] = "wrong";
        const bool with_random = options.seed == goldenSeed;
        for (std::size_t col = 0; col < row.size(); ++col) {
            if (!with_random && (col == 1 || col == 2))
                continue;
            if (col >= golden[i].size() || golden[i][col] != row[col])
                result.fail("fig14 golden row " + std::to_string(i) +
                            " column " + std::to_string(col) + ": got " +
                            row[col] + ", golden " +
                            (col < golden[i].size() ? golden[i][col]
                                                    : "<missing>"));
        }
    }
}

} // namespace

Result
runNnIcbp(const Options &options)
{
    Result result;
    const Names names;
    nameThisThread("main");
    if (options.trace)
        enableTracing();
    const std::uint64_t window_start = nowNs();
    Fixture fx;
    setUp(fx, names);
    result.setupS = secondsSinceStart();
    if (options.setupOnly)
        return result;

    // At least one curve; more while the budget lasts.
    std::vector<Curve> curves;
    const std::uint64_t measure_start = nowNs();
    do {
        curves.push_back(runCurve(fx, options.seed, names, result));
    } while (!options.trace && secondsSince(measure_start) +
                     curves.back().wallS <= options.seconds);
    const std::uint64_t window_end = nowNs();
    checkCurve(fx, curves.front(), options, result);

    std::vector<double> curve_s;
    std::vector<double> point_ms;
    for (const Curve &curve : curves) {
        curve_s.push_back(curve.curveS());
        point_ms.insert(point_ms.end(), curve.pointMs.begin(),
                        curve.pointMs.end());
    }
    const double curve_median = medianOf(curve_s);
    result.notes.push_back(
        withCount("nn_curve_s", curve_median, "s", curve_s.size()));
    result.notes.push_back(withCount("point p50", quantile(point_ms, 0.5),
                                     "ms", point_ms.size()));

    if (!options.trace) {
        result.add("work_s", curve_median, "s");
        return result;
    }

    emitAccounting(result, layerNames(), "main", window_start, window_end);
    const Curve &traced = curves.front();
    const Accounting acct = account("main", window_start, window_end);
    const auto self = [&](const std::string &layer) {
        const auto it = acct.layers.find(layer);
        return it == acct.layers.end() ? LayerTotals{} : it->second;
    };
    const LayerTotals eval = self("nn.eval");
    result.add("accel.decode_cache.hit_ratio",
               static_cast<double>(traced.cacheHits) /
                   static_cast<double>(traced.readCalls),
               "ratio");
    result.add("nn.eval.us_per_image",
               eval.selfMs * 1e3 /
                   static_cast<double>(eval.calls * evalLimit),
               "us");

    // The same curve untraced, for the tracing overhead.
    disableTracing();
    const Curve plain = runCurve(fx, options.seed, names, result);
    result.add("trace.overhead_ratio", traced.wallS / plain.wallS, "x");
    return result;
}

} // namespace perfbench
