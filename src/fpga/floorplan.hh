/**
 * @file
 * Physical floorplan of the BRAM fabric.
 *
 * BRAMs are distributed across the die in vertical columns. The paper's
 * Fault Variation Maps (Fig 6 and Fig 7) plot per-BRAM fault rates at the
 * BRAM's physical (X, Y) site, with white boxes for empty sites. The
 * floorplan provides the bidirectional mapping between pool index and
 * physical site that both the FVM builder and the ICBP placer need.
 */

#ifndef UVOLT_FPGA_FLOORPLAN_HH
#define UVOLT_FPGA_FLOORPLAN_HH

#include <cstdint>
#include <optional>
#include <vector>

namespace uvolt::fpga
{

/** Physical site of a BRAM on the die. */
struct Site
{
    int x = 0; ///< BRAM column index
    int y = 0; ///< row within the column (larger y = further "north")

    bool operator==(const Site &other) const = default;
};

/** Grid of BRAM sites, some of which may be empty. */
class Floorplan
{
  public:
    /**
     * Build a column-major floorplan for @a bram_count BRAMs.
     *
     * Columns are filled bottom-to-top with @a column_height sites each;
     * any remainder leaves empty sites at the tops of the last columns,
     * mimicking the irregular BRAM columns of real devices.
     */
    static Floorplan columnGrid(std::uint32_t bram_count, int column_height);

    /** Number of BRAM columns. */
    int width() const { return width_; }

    /** Sites per column. */
    int height() const { return height_; }

    /** Number of occupied sites (== device BRAM count). */
    std::uint32_t bramCount() const { return bramCount_; }

    /** Physical site of a BRAM pool index. */
    Site siteOf(std::uint32_t bram) const;

    /** Pool index at a site, or nullopt if the site is empty. */
    std::optional<std::uint32_t> bramAt(Site site) const;

    /** Whether a site holds a BRAM. */
    bool occupied(Site site) const { return bramAt(site).has_value(); }

  private:
    Floorplan() = default;

    int width_ = 0;
    int height_ = 0;
    std::uint32_t bramCount_ = 0;
    std::vector<Site> sites_;                 // pool index -> site
    std::vector<std::int64_t> indexAtSite_;   // site -> pool index or -1
};

} // namespace uvolt::fpga

#endif // UVOLT_FPGA_FLOORPLAN_HH
