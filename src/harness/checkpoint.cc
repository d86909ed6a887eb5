#include "harness/checkpoint.hh"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/fsio.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace uvolt::harness
{

namespace
{

constexpr const char *magicLine = "uvolt-sweep-checkpoint v1";

void
writeDoubles(std::ostream &out, const char *key,
             const std::vector<double> &values)
{
    out << key << ' ' << values.size();
    for (double v : values)
        out << ' ' << v;
    out << '\n';
}

void
writeInts(std::ostream &out, const char *key,
          const std::vector<int> &values)
{
    out << key << ' ' << values.size();
    for (int v : values)
        out << ' ' << v;
    out << '\n';
}

/** Read one expected keyword; badCheckpoint otherwise. */
Expected<void>
expectKey(std::istream &in, const char *key)
{
    std::string token;
    if (!(in >> token) || token != key)
        return makeError(Errc::badCheckpoint,
                         "expected key '{}', found '{}'", key, token);
    return {};
}

template <typename T>
Expected<T>
readScalar(std::istream &in, const char *key)
{
    if (auto ok = expectKey(in, key); !ok.ok())
        return ok.error();
    T value{};
    if (!(in >> value))
        return makeError(Errc::badCheckpoint, "bad value for key '{}'",
                         key);
    return value;
}

Expected<std::vector<double>>
readDoubles(std::istream &in, const char *key)
{
    auto count = readScalar<std::size_t>(in, key);
    if (!count.ok())
        return count.error();
    std::vector<double> values(count.value());
    for (auto &v : values) {
        if (!(in >> v))
            return makeError(Errc::badCheckpoint,
                             "truncated list for key '{}'", key);
    }
    return values;
}

Expected<std::vector<int>>
readInts(std::istream &in, const char *key)
{
    auto count = readScalar<std::size_t>(in, key);
    if (!count.ok())
        return count.error();
    std::vector<int> values(count.value());
    for (auto &v : values) {
        if (!(in >> v))
            return makeError(Errc::badCheckpoint,
                             "truncated list for key '{}'", key);
    }
    return values;
}

} // namespace

void
saveCheckpoint(const SweepCheckpoint &checkpoint, std::ostream &out)
{
    out << magicLine << '\n';
    out << std::setprecision(17);
    out << "valid " << (checkpoint.valid ? 1 : 0) << '\n';
    out << "platform " << checkpoint.platform << '\n';
    if (checkpoint.pattern.kind == PatternSpec::Kind::Fixed) {
        out << "pattern fixed " << checkpoint.pattern.word << '\n';
    } else {
        out << "pattern random " << checkpoint.pattern.oneDensity << ' '
            << checkpoint.pattern.seed << '\n';
    }
    out << "ambientC " << checkpoint.ambientC << '\n';
    out << "runsPerLevel " << checkpoint.runsPerLevel << '\n';
    out << "stepMv " << checkpoint.stepMv << '\n';
    out << "fromMv " << checkpoint.fromMv << '\n';
    out << "downToMv " << checkpoint.downToMv << '\n';
    out << "currentLevelMv " << checkpoint.currentLevelMv << '\n';
    out << "runsStarted " << checkpoint.runsStarted << '\n';
    writeDoubles(out, "currentRunCounts", checkpoint.currentRunCounts);
    out << "points " << checkpoint.completedPoints.size() << '\n';
    for (const auto &point : checkpoint.completedPoints) {
        out << "point " << point.vccBramMv << '\n';
        writeDoubles(out, "runCounts", point.runCounts);
        out << "medianFaults " << point.medianFaults << '\n';
        out << "faultsPerMbit " << point.faultsPerMbit << '\n';
        out << "bramPowerW " << point.bramPowerW << '\n';
        out << "oneToZeroFraction " << point.oneToZeroFraction << '\n';
        writeInts(out, "perBramFaults", point.perBramFaults);
    }
    out << "end\n";
}

void
saveCheckpointFile(const SweepCheckpoint &checkpoint,
                   const std::string &path)
{
    UVOLT_TRACE_SCOPE("checkpoint.save", [&] {
        return telemetry::TraceArgs{{"path", path}};
    });
    telemetry::Registry::global().counter("checkpoint.saves").increment();
    std::ostringstream buffer;
    saveCheckpoint(checkpoint, buffer);
    if (!buffer.good())
        fatal("I/O error serializing checkpoint for '{}'", path);
    if (auto written = writeFileAtomic(path, buffer.str(),
                                       Errc::badCheckpoint);
        !written.ok())
        fatal("{}", written.error().message);
}

Expected<SweepCheckpoint>
loadCheckpoint(std::istream &in)
{
    std::string magic;
    if (!std::getline(in, magic) || magic != magicLine)
        return makeError(Errc::badCheckpoint,
                         "not a sweep checkpoint (header '{}')", magic);

    SweepCheckpoint checkpoint;

    auto valid = readScalar<int>(in, "valid");
    if (!valid.ok())
        return valid.error();
    checkpoint.valid = valid.value() != 0;

    auto platform = readScalar<std::string>(in, "platform");
    if (!platform.ok())
        return platform.error();
    checkpoint.platform = platform.value();

    auto kind = readScalar<std::string>(in, "pattern");
    if (!kind.ok())
        return kind.error();
    if (kind.value() == "fixed") {
        checkpoint.pattern.kind = PatternSpec::Kind::Fixed;
        if (!(in >> checkpoint.pattern.word))
            return makeError(Errc::badCheckpoint, "bad fixed pattern");
    } else if (kind.value() == "random") {
        checkpoint.pattern.kind = PatternSpec::Kind::Random;
        if (!(in >> checkpoint.pattern.oneDensity >>
              checkpoint.pattern.seed))
            return makeError(Errc::badCheckpoint, "bad random pattern");
        if (!checkpoint.pattern.wellFormed())
            return makeError(Errc::badCheckpoint,
                             "random pattern density {} is not in [0, 1]",
                             checkpoint.pattern.oneDensity);
    } else {
        return makeError(Errc::badCheckpoint, "unknown pattern kind '{}'",
                         kind.value());
    }

#define UVOLT_READ_FIELD(name, type)                                       \
    do {                                                                   \
        auto field = readScalar<type>(in, #name);                          \
        if (!field.ok())                                                   \
            return field.error();                                          \
        checkpoint.name = field.value();                                   \
    } while (0)

    UVOLT_READ_FIELD(ambientC, double);
    UVOLT_READ_FIELD(runsPerLevel, int);
    UVOLT_READ_FIELD(stepMv, int);
    UVOLT_READ_FIELD(fromMv, int);
    UVOLT_READ_FIELD(downToMv, int);
    UVOLT_READ_FIELD(currentLevelMv, int);
    UVOLT_READ_FIELD(runsStarted, std::uint64_t);
#undef UVOLT_READ_FIELD

    auto partial = readDoubles(in, "currentRunCounts");
    if (!partial.ok())
        return partial.error();
    checkpoint.currentRunCounts = partial.take();

    auto point_count = readScalar<std::size_t>(in, "points");
    if (!point_count.ok())
        return point_count.error();
    checkpoint.completedPoints.reserve(point_count.value());
    for (std::size_t i = 0; i < point_count.value(); ++i) {
        SweepPoint point;
        auto mv = readScalar<int>(in, "point");
        if (!mv.ok())
            return mv.error();
        point.vccBramMv = mv.value();
        auto counts = readDoubles(in, "runCounts");
        if (!counts.ok())
            return counts.error();
        point.runCounts = counts.take();
        // Rebuild the streaming statistics by replaying the counts in
        // their original order (Welford is order-sensitive, so replay
        // reproduces the uninterrupted accumulator bit for bit).
        for (double count : point.runCounts)
            point.runStats.add(count);

        auto median_faults = readScalar<double>(in, "medianFaults");
        if (!median_faults.ok())
            return median_faults.error();
        point.medianFaults = median_faults.value();
        auto per_mbit = readScalar<double>(in, "faultsPerMbit");
        if (!per_mbit.ok())
            return per_mbit.error();
        point.faultsPerMbit = per_mbit.value();
        auto power = readScalar<double>(in, "bramPowerW");
        if (!power.ok())
            return power.error();
        point.bramPowerW = power.value();
        auto polarity = readScalar<double>(in, "oneToZeroFraction");
        if (!polarity.ok())
            return polarity.error();
        point.oneToZeroFraction = polarity.value();
        auto per_bram = readInts(in, "perBramFaults");
        if (!per_bram.ok())
            return per_bram.error();
        point.perBramFaults = per_bram.take();

        checkpoint.completedPoints.push_back(std::move(point));
    }

    if (auto end = expectKey(in, "end"); !end.ok())
        return end.error();
    return checkpoint;
}

Expected<SweepCheckpoint>
loadCheckpointFile(const std::string &path)
{
    UVOLT_TRACE_SCOPE("checkpoint.load", [&] {
        return telemetry::TraceArgs{{"path", path}};
    });
    telemetry::Registry::global().counter("checkpoint.loads").increment();
    std::ifstream in(path);
    if (!in)
        return makeError(Errc::badCheckpoint,
                         "cannot open checkpoint file '{}'", path);
    return loadCheckpoint(in);
}

SweepCheckpoint
makeCheckpoint(const pmbus::Board &board, const SweepOptions &options,
               int from_mv, int down_to_mv)
{
    SweepCheckpoint checkpoint;
    checkpoint.platform = board.spec().name;
    checkpoint.pattern = options.pattern;
    checkpoint.ambientC = board.ambientC();
    checkpoint.runsPerLevel = options.runsPerLevel;
    checkpoint.stepMv = options.stepMv;
    checkpoint.fromMv = from_mv;
    checkpoint.downToMv = down_to_mv;
    checkpoint.runsStarted = board.runsStarted();
    return checkpoint;
}

Expected<void>
tryValidateCheckpoint(const SweepCheckpoint &checkpoint,
                      const pmbus::Board &board,
                      const SweepOptions &options, int from_mv,
                      int down_to_mv)
{
    if (checkpoint.platform != board.spec().name)
        return makeError(Errc::badCheckpoint,
                         "checkpoint belongs to {}, board is {}",
                         checkpoint.platform, board.spec().name);
    const PatternSpec &saved = checkpoint.pattern;
    const PatternSpec &wanted = options.pattern;
    if (saved.kind != wanted.kind || saved.word != wanted.word ||
        saved.seed != wanted.seed ||
        (wanted.kind == PatternSpec::Kind::Random &&
         saved.oneDensity != wanted.oneDensity))
        return makeError(Errc::badCheckpoint,
                         "checkpoint pattern {} (density {}, seed {}) "
                         "does not match campaign pattern {} (density "
                         "{}, seed {})",
                         saved.label(), saved.oneDensity, saved.seed,
                         wanted.label(), wanted.oneDensity, wanted.seed);
    if (checkpoint.runsPerLevel != options.runsPerLevel ||
        checkpoint.stepMv != options.stepMv ||
        checkpoint.fromMv != from_mv || checkpoint.downToMv != down_to_mv)
        return makeError(Errc::badCheckpoint,
                         "checkpoint campaign shape ({} runs/level, {} mV "
                         "steps, {}..{} mV) does not match requested ({} "
                         "runs/level, {} mV steps, {}..{} mV)",
                         checkpoint.runsPerLevel, checkpoint.stepMv,
                         checkpoint.fromMv, checkpoint.downToMv,
                         options.runsPerLevel, options.stepMv, from_mv,
                         down_to_mv);
    if (checkpoint.ambientC != board.ambientC())
        return makeError(Errc::badCheckpoint,
                         "checkpoint ambient {} degC does not match board "
                         "ambient {} degC",
                         checkpoint.ambientC, board.ambientC());
    return {};
}

} // namespace uvolt::harness
