/**
 * @file
 * Exhaustive check of nn::expf and nn::logsig against the host libm, on
 * every input:
 *
 *   - nn::expf(x) == expf(x) bitwise for every finite float x;
 *   - nn::logsig gives, on every one of the 2^32 bit patterns, the bits
 *     of 1 / (1 + std::exp(-x)), the libm-based logsig it replaced; a
 *     NaN must give a NaN.
 *
 * On a glibc 2.36 FMA host, where libm's expf is the algorithm nn::expf
 * copies, every count must be 0; elsewhere the counts say how far that
 * libm is from it. Not part of ctest (about 30 s on 4 threads):
 *
 *   cmake --build build --target expf_exhaustive
 *   ./build/tests/expf_exhaustive
 *
 * Exits 1 on any mismatch.
 */

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "nn/network.hh"

namespace
{

using uvolt::nn::logsig;

/** Called through a volatile pointer so the compiler cannot fold it. */
float (*volatile libmExpf)(float) = ::expf;

struct Counts
{
    std::atomic<std::uint64_t> finite{0};
    std::atomic<std::uint64_t> expf{0};
    std::atomic<std::uint64_t> logsig{0};
    std::atomic<std::uint64_t> nan{0};
};

std::uint32_t
bitsOf(float value)
{
    return std::bit_cast<std::uint32_t>(value);
}

/** Check bit patterns [first, last). */
void
checkRange(std::uint64_t first, std::uint64_t last, Counts &counts)
{
    std::uint64_t finite = 0, exp_bad = 0, logsig_bad = 0, nan_bad = 0;
    for (std::uint64_t bits = first; bits < last; ++bits) {
        const float x = std::bit_cast<float>(static_cast<std::uint32_t>(bits));
        if (std::isnan(x)) {
            nan_bad += !std::isnan(logsig(x));
            continue;
        }
        if (std::isfinite(x)) {
            ++finite;
            exp_bad += bitsOf(uvolt::nn::expf(x)) != bitsOf(libmExpf(x));
        }
        logsig_bad += bitsOf(logsig(x)) != bitsOf(1.0f / (1.0f + libmExpf(-x)));
    }
    counts.finite += finite;
    counts.expf += exp_bad;
    counts.logsig += logsig_bad;
    counts.nan += nan_bad;
}

} // namespace

int
main()
{
    constexpr unsigned threads = 4;
    constexpr std::uint64_t patterns = std::uint64_t{1} << 32;
    Counts counts;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t)
        workers.emplace_back(checkRange, patterns / threads * t,
                             patterns / threads * (t + 1), std::ref(counts));
    for (auto &worker : workers)
        worker.join();

    std::printf("expf: %llu finite floats, %llu differ from libm expf\n",
                static_cast<unsigned long long>(counts.finite.load()),
                static_cast<unsigned long long>(counts.expf.load()));
    std::printf("logsig: 2^32 patterns, %llu differ from "
                "1/(1+std::exp(-x)), %llu NaN inputs without a NaN "
                "result\n",
                static_cast<unsigned long long>(counts.logsig.load()),
                static_cast<unsigned long long>(counts.nan.load()));
    return counts.expf || counts.logsig || counts.nan ? 1 : 0;
}
