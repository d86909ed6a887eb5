/**
 * @file
 * Example: the characterize-once / place-many-times flow.
 *
 * The paper extracts each chip's Fault Variation Map as a pre-process
 * stage and then feeds it to the compile-time ICBP constraint (Fig
 * 12b). This example mirrors that split with the FvmCache: on the
 * first run it characterizes the chip (a Campaign sweep) and files the
 * FVM under the cache directory; subsequent runs — or concurrent build
 * jobs, obtain() is single-flight — skip the slow characterization,
 * load the map, and go straight to placement. Exactly how a build farm
 * consumes per-board maps.
 *
 * Usage: fvm_cache [--platform VC707] [--dir uvolt_model_cache]
 *                  [--runs 9] [--force]
 */

#include <cstdio>
#include <filesystem>

#include "accel/accelerator.hh"
#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "harness/campaign.hh"
#include "harness/clusterer.hh"
#include "harness/fvm.hh"
#include "nn/model_zoo.hh"
#include "nn/quantizer.hh"
#include "pmbus/board.hh"
#include "util/cli.hh"

using namespace uvolt;

int
main(int argc, char **argv)
{
    CliParser cli("Characterize-once / place-many-times FVM flow");
    cli.addString("platform", "VC707", "board to use");
    cli.addString("dir", "", "FVM cache directory (default "
                             "UVOLT_CACHE_DIR or ./uvolt_model_cache)");
    cli.addInt("runs", 9, "characterization runs per voltage level");
    cli.addBool("force", "re-characterize even if the cache exists");
    if (!cli.tryParse(argc, argv).orFatal())
        return 0;

    const auto &spec = fpga::findPlatform(cli.getString("platform"));
    const auto pattern = harness::PatternSpec::allOnes();
    const int runs = static_cast<int>(cli.getInt("runs"));

    std::string dir = cli.getString("dir");
    if (dir.empty())
        dir = harness::FvmCache::defaultDirectory();
    harness::FvmCache cache(dir);
    if (cli.getBool("force")) {
        std::error_code ec;
        std::filesystem::remove(
            dir + "/" + harness::FvmCache::keyFor(spec, pattern, runs) +
                ".fvm",
            ec);
    }

    // --- Stage 1: obtain the chip's FVM (from cache if possible) ---------
    const auto fvm =
        cache
            .obtain(spec, pattern, runs,
                    [&]() -> Expected<harness::Fvm> {
                        std::printf("no usable FVM cache for %s; "
                                    "characterizing (Listing 1)...\n",
                                    spec.name.c_str());
                        auto result = harness::Campaign::onPlatform(
                                          spec.name)
                                          .withPattern(pattern)
                                          .sweep(runs)
                                          .run();
                        if (!result.ok())
                            return result.error();
                        return *result.value().dies.front().mergedFvm;
                    })
            .orFatal();

    const auto stats = cache.stats();
    std::printf("FVM for %s out of %s (%s; %.1f%% fault-free BRAMs)\n",
                fvm->platform().c_str(), cache.directory().c_str(),
                stats.misses ? "freshly characterized" : "cache hit",
                fvm->faultFreeFraction() * 100.0);

    // --- Stage 2: compile-time use of the map ----------------------------
    const harness::ClusterReport clusters = harness::clusterBrams(*fvm);
    std::printf("low-vulnerable pool: %zu BRAMs (%.1f%%)\n",
                clusters.lowVulnerableBrams.size(),
                clusters.shareOf(harness::VulnClass::Low) * 100.0);

    pmbus::Board board(spec);
    const nn::ZooSpec zoo = nn::paperForestSpec();
    const nn::QuantizedModel model = nn::quantize(nn::trainOrLoad(zoo));
    const accel::WeightImage image(model);
    if (image.logicalBramCount() > board.device().bramCount()) {
        std::printf("model does not fit %s; nothing to place\n",
                    spec.name.c_str());
        return 1;
    }
    const accel::Placement placement = accel::icbpPlacement(image, *fvm);

    // Deploy at Vcrash and report the protected outcome.
    accel::Accelerator accel(board, image, placement);
    board.setVccBramMv(spec.calib.bramVcrashMv);
    board.startReferenceRun();
    const auto faults = accel.weightFaults();
    std::printf("deployed %u weight BRAMs with ICBP at Vcrash: %llu "
                "weight-bit faults (last layer: %llu)\n",
                image.logicalBramCount(),
                static_cast<unsigned long long>(faults.total),
                static_cast<unsigned long long>(
                    faults.faultsPerLayer.back()));
    board.softReset();
    return 0;
}
