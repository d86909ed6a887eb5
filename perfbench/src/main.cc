/**
 * @file
 * uvolt_perfbench: one workload per process.
 *
 *     uvolt_perfbench <characterize|nn_icbp|serve_open_loop|warm>
 *         [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
 *         [--setup-only] [--wrong-expected]
 *
 * Prints notes and metrics, then one JSON line (correct, attempted,
 * failed, setup_s, metrics). Exit status 1 when a correctness check
 * failed, 2 on bad usage. `warm` trains the MNIST model into the model
 * cache once, outside all timing.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.hh"
#include "nn/model_zoo.hh"

using namespace perfbench;

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "uvolt_perfbench: %s\nusage: uvolt_perfbench "
                 "<characterize|nn_icbp|serve_open_loop|warm> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out DIR] [--setup-only] "
                 "[--wrong-expected]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    markProcessStart();
    if (argc < 2)
        return usage("missing workload");
    Options options;
    options.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        try {
            if (flag == "--seed" && has_value)
                options.seed = std::stoull(argv[++i]);
            else if (flag == "--seconds" && has_value)
                options.seconds = std::stod(argv[++i]);
            else if (flag == "--trace" && has_value)
                options.trace = std::stoi(argv[++i]) != 0;
            else if (flag == "--out" && has_value)
                options.outDir = argv[++i];
            else if (flag == "--setup-only")
                options.setupOnly = true;
            else if (flag == "--wrong-expected")
                options.wrongExpected = true;
            else
                return usage(("bad argument '" + flag + "'").c_str());
        } catch (const std::exception &) {
            return usage(("bad value for '" + flag + "'").c_str());
        }
    }
    std::error_code ec;
    std::filesystem::create_directories(options.outDir, ec);

    Result result;
    if (options.workload == "warm") {
        (void)uvolt::nn::trainOrLoad(uvolt::nn::paperMnistSpec());
        return 0;
    } else if (options.workload == "characterize") {
        result = runCharacterize(options);
    } else if (options.workload == "nn_icbp") {
        result = runNnIcbp(options);
    } else if (options.workload == "serve_open_loop") {
        result = runServeOpenLoop(options);
    } else {
        return usage(("unknown workload '" + options.workload + "'").c_str());
    }
    if (!options.setupOnly) {
        result.add("peak_rss_mb", peakRssMb(), "MB");
        if (options.trace &&
            !writeSpans(options.scratch(options.workload + ".spans.csv")))
            result.fail("could not write the span file");
    }
    result.print();
    return result.correct ? 0 : 1;
}
