#include "fpga/floorplan.hh"

#include <cmath>

#include "util/logging.hh"

namespace uvolt::fpga
{

Floorplan
Floorplan::columnGrid(std::uint32_t bram_count, int column_height)
{
    if (bram_count == 0 || column_height <= 0)
        fatal("columnGrid requires a positive BRAM count and height");

    Floorplan plan;
    plan.height_ = column_height;
    plan.width_ = static_cast<int>(
        (bram_count + static_cast<std::uint32_t>(column_height) - 1) /
        static_cast<std::uint32_t>(column_height));
    plan.bramCount_ = bram_count;
    plan.sites_.resize(bram_count);
    plan.indexAtSite_.assign(
        static_cast<std::size_t>(plan.width_) *
        static_cast<std::size_t>(column_height), -1);

    // Column-major fill, bottom (y = 0) to top, west (x = 0) to east.
    for (std::uint32_t i = 0; i < bram_count; ++i) {
        Site site;
        site.x = static_cast<int>(i / static_cast<std::uint32_t>(
                                      column_height));
        site.y = static_cast<int>(i % static_cast<std::uint32_t>(
                                      column_height));
        plan.sites_[i] = site;
        plan.indexAtSite_[static_cast<std::size_t>(site.x) *
                          static_cast<std::size_t>(column_height) +
                          static_cast<std::size_t>(site.y)] =
            static_cast<std::int64_t>(i);
    }
    return plan;
}

Site
Floorplan::siteOf(std::uint32_t bram) const
{
    if (bram >= bramCount_)
        fatal("BRAM index {} out of pool of {}", bram, bramCount_);
    return sites_[bram];
}

std::optional<std::uint32_t>
Floorplan::bramAt(Site site) const
{
    if (site.x < 0 || site.x >= width_ || site.y < 0 || site.y >= height_)
        return std::nullopt;
    std::int64_t index =
        indexAtSite_[static_cast<std::size_t>(site.x) *
                     static_cast<std::size_t>(height_) +
                     static_cast<std::size_t>(site.y)];
    if (index < 0)
        return std::nullopt;
    return static_cast<std::uint32_t>(index);
}

} // namespace uvolt::fpga
