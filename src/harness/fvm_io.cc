#include "harness/fvm_io.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/fsio.hh"

namespace uvolt::harness
{

namespace
{

/** True once @a fields holds nothing but trailing whitespace. */
bool
fullyConsumed(std::istringstream &fields)
{
    char extra = 0;
    return !(fields >> extra);
}

} // namespace

Expected<void>
trySaveFvm(const Fvm &fvm, const fpga::Floorplan &floorplan,
           const std::string &path)
{
    std::ostringstream out;
    out << "#uvolt-fvm v1 " << fvm.platform() << ' '
        << floorplan.width() << ' ' << floorplan.height() << ' '
        << fvm.bramCount() << '\n';
    for (std::uint32_t b = 0; b < fvm.bramCount(); ++b) {
        const fpga::Site site = floorplan.siteOf(b);
        out << site.x << ',' << site.y << ',' << fvm.faultsOf(b) << '\n';
    }
    // Crash-atomic: a concurrent reader (or a process killed mid-save)
    // must see either the previous complete map or the new one — a
    // truncated file would count as a corrupt-cache re-characterization.
    return writeFileAtomic(path, out.str(), Errc::corruptCache);
}

Expected<Fvm>
tryLoadFvm(const fpga::Floorplan &floorplan, const std::string &path)
{
    if (!std::filesystem::exists(path))
        return makeError(Errc::cacheMiss, "no FVM cache file at '{}'",
                         path);
    const auto malformed = [&](std::string_view what) {
        return makeError(Errc::corruptCache, "FVM cache file '{}': {}", path,
                         what);
    };
    std::ifstream in(path);
    std::string header;
    if (!in || !std::getline(in, header))
        return malformed("unreadable or empty");

    std::istringstream head(header);
    std::string tag, version, platform;
    int width = 0, height = 0;
    std::uint32_t count = 0;
    head >> tag >> version >> platform >> width >> height >> count;
    if (!head || tag != "#uvolt-fvm" || version != "v1" ||
        !fullyConsumed(head))
        return malformed("bad header");
    if (width != floorplan.width() || height != floorplan.height() ||
        count != floorplan.bramCount())
        return makeError(Errc::corruptCache,
                         "FVM cache file '{}' is for a {}x{}/{} "
                         "floorplan, expected {}x{}/{}",
                         path, width, height, count, floorplan.width(),
                         floorplan.height(), floorplan.bramCount());

    std::vector<int> faults(count, -1);
    std::string line;
    std::uint32_t rows = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        int x = 0, y = 0, value = 0;
        char comma1 = 0, comma2 = 0;
        std::istringstream fields(line);
        fields >> x >> comma1 >> y >> comma2 >> value;
        if (!fields || comma1 != ',' || comma2 != ',' || value < 0 ||
            !fullyConsumed(fields))
            return malformed("bad row");
        const auto bram = floorplan.bramAt({x, y});
        if (!bram || faults[*bram] >= 0)
            return malformed("unknown or duplicate site");
        faults[*bram] = value;
        ++rows;
    }
    if (rows != count)
        return malformed("missing rows");
    return Fvm(platform, floorplan, std::move(faults));
}

} // namespace uvolt::harness
