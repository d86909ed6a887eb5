/**
 * @file
 * The serial MNIST-like generator: the executable spec of
 * data::makeMnistLike().
 *
 * This is the one-pass loop the library generator replaced, kept
 * verbatim: one Rng walks every draw of image i (digit, level, ghost,
 * wobble, shift, erasure, then 784 noise deviates) before image i + 1.
 * The library splits that walk into a serial pass over the structural
 * draws and a parallel pass over the pixels; data_test holds the two
 * byte for byte.
 */

#ifndef UVOLT_TESTS_SUPPORT_MNIST_REFERENCE_HH
#define UVOLT_TESTS_SUPPORT_MNIST_REFERENCE_HH

#include <cstddef>
#include <cstdint>

#include "data/synthetic.hh"

namespace uvolt::data
{

/** What makeMnistLike(count, seed, options) must return, bit for bit. */
Dataset referenceMnistLike(std::size_t count, std::uint64_t seed,
                           const MnistOptions &options = {});

} // namespace uvolt::data

#endif // UVOLT_TESTS_SUPPORT_MNIST_REFERENCE_HH
