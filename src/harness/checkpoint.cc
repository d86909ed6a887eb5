#include "harness/checkpoint.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string_view>

#include "util/format.hh"
#include "util/fsio.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"

namespace uvolt::harness
{

namespace
{

constexpr std::string_view magicLine = "uvolt-sweep-checkpoint v2";

// The text of a save is built in one string. Integers print through
// std::to_chars. Doubles print as %.17g, which is what an ostream at
// setprecision(17) prints.

template <std::integral T>
void
appendValue(std::string &out, T value)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void
appendValue(std::string &out, double value)
{
    // Most doubles in a checkpoint are per-run fault counts. %.17g
    // prints an integer below 1e17 as its plain digits, so those take
    // the integer path. The rest go through snprintf, the engine the
    // iostream writer used: std::to_chars with a precision would page
    // in ~280 KB of libstdc++ tables and code that nothing else uses.
    if (value == std::trunc(value) && std::abs(value) < 1e17 &&
        !(value == 0.0 && std::signbit(value))) {
        appendValue(out, static_cast<std::int64_t>(value));
        return;
    }
    char buf[32];
    const int length = std::snprintf(buf, sizeof buf, "%.17g", value);
    out.append(buf, static_cast<std::size_t>(length));
}

void
appendValue(std::string &out, std::string_view text)
{
    out += text;
}

/** "key v1 v2 ...\n" */
template <typename... Values>
void
appendLine(std::string &out, std::string_view key, const Values &...values)
{
    out += key;
    ((out += ' ', appendValue(out, values)), ...);
    out += '\n';
}

/** A counted list: "key n v1 ... vn\n" */
template <typename T>
void
appendList(std::string &out, std::string_view key,
           const std::vector<T> &values)
{
    out += key;
    out += ' ';
    appendValue(out, values.size());
    for (T v : values) {
        out += ' ';
        appendValue(out, v);
    }
    out += '\n';
}

/** Append "end <length> <digest>\n" for the section @a body. */
void
appendTrailer(std::string &out, std::string_view body)
{
    const std::uint64_t digest = fnv1a64(body);
    out += "end ";
    appendValue(out, body.size());
    out += ' ';
    for (int shift = 60; shift >= 0; shift -= 4)
        out += "0123456789abcdef"[(digest >> shift) & 0xf];
    out += '\n';
}

/** Close the section that starts at @a from in @a out. */
void
closeSection(std::string &out, std::size_t from)
{
    std::string trailer;
    appendTrailer(trailer, std::string_view(out).substr(from));
    out += trailer;
}

void
appendHeader(std::string &out, const SweepCheckpoint &checkpoint)
{
    const std::size_t from = out.size();
    appendLine(out, magicLine);
    appendLine(out, "valid", checkpoint.valid ? 1 : 0);
    appendLine(out, "platform", std::string_view(checkpoint.platform));
    if (checkpoint.pattern.kind == PatternSpec::Kind::Fixed)
        appendLine(out, "pattern fixed", checkpoint.pattern.word);
    else
        appendLine(out, "pattern random", checkpoint.pattern.oneDensity,
                   checkpoint.pattern.seed);
    appendLine(out, "ambientC", checkpoint.ambientC);
    appendLine(out, "runsPerLevel", checkpoint.runsPerLevel);
    appendLine(out, "stepMv", checkpoint.stepMv);
    appendLine(out, "fromMv", checkpoint.fromMv);
    appendLine(out, "downToMv", checkpoint.downToMv);
    closeSection(out, from);
}

/** One record: the completed points from @a first on, then the cursor. */
void
appendRecord(std::string &out, const SweepCheckpoint &checkpoint,
             std::size_t first)
{
    const std::size_t from = out.size();
    appendLine(out, "points", checkpoint.completedPoints.size() - first);
    for (std::size_t i = first; i < checkpoint.completedPoints.size();
         ++i) {
        const SweepPoint &point = checkpoint.completedPoints[i];
        appendLine(out, "point", point.vccBramMv);
        appendList(out, "runCounts", point.runCounts);
        appendLine(out, "medianFaults", point.medianFaults);
        appendLine(out, "faultsPerMbit", point.faultsPerMbit);
        appendLine(out, "bramPowerW", point.bramPowerW);
        appendLine(out, "oneToZeroFraction", point.oneToZeroFraction);
        appendList(out, "perBramFaults", point.perBramFaults);
    }
    appendLine(out, "currentLevelMv", checkpoint.currentLevelMv);
    appendLine(out, "runsStarted", checkpoint.runsStarted);
    appendList(out, "currentRunCounts", checkpoint.currentRunCounts);
    closeSection(out, from);
}

/** An upper estimate of appendRecord()'s length, to size the text once. */
std::size_t
recordSizeHint(const SweepCheckpoint &checkpoint, std::size_t first)
{
    std::size_t doubles = checkpoint.currentRunCounts.size();
    std::size_t ints = 0;
    for (std::size_t i = first; i < checkpoint.completedPoints.size();
         ++i) {
        const SweepPoint &point = checkpoint.completedPoints[i];
        doubles += point.runCounts.size() + 4;
        ints += point.perBramFaults.size();
    }
    return 256 + 25 * doubles + 12 * ints +
        100 * (checkpoint.completedPoints.size() - first);
}

/**
 * Split the section at the front of @a text off it: its body, or
 * nullopt when no trailer line matching the body follows (a torn or
 * corrupt section).
 */
std::optional<std::string_view>
takeSection(std::string_view &text)
{
    std::string trailer;
    for (std::size_t at = 0;;) {
        const std::size_t eol = text.find('\n', at);
        if (eol == std::string_view::npos)
            return std::nullopt;
        if (text.substr(at).starts_with("end ")) {
            const std::string_view body = text.substr(0, at);
            appendTrailer(trailer, body);
            if (text.substr(at, eol + 1 - at) != trailer)
                return std::nullopt;
            text.remove_prefix(eol + 1);
            return body;
        }
        at = eol + 1;
    }
}

/**
 * The space-separated fields of one section, read in order. The first
 * failure sticks: later reads do nothing, and finish() reports it.
 */
class Fields
{
  public:
    explicit Fields(std::string_view text) : rest_(text) {}

    bool ok() const { return error_.empty(); }

    /** Read one value of the field @a what into @a field. */
    template <typename T>
    Fields &
    value(T &field, std::string_view what)
    {
        if (ok() && !parse(token(), field))
            error_ = strFormat("bad value for key '{}'", what);
        return *this;
    }

    /** Read "key value". */
    template <typename T>
    Fields &
    read(std::string_view key, T &field)
    {
        if (ok()) {
            if (const std::string_view found = token(); found != key)
                error_ = strFormat("expected key '{}', found '{}'", key,
                                   found);
        }
        return value(field, key);
    }

    /** Read a counted list "key n v1 ... vn". */
    template <typename T>
    Fields &
    readList(std::string_view key, std::vector<T> &values)
    {
        std::size_t count = 0;
        read(key, count);
        values.clear();
        // Each value takes two bytes or more, so a corrupt count can
        // not reserve past the text.
        values.reserve(std::min(count, rest_.size() / 2));
        for (std::size_t i = 0; i < count && ok(); ++i)
            value(values.emplace_back(), key);
        return *this;
    }

    /** badCheckpoint for the first failure or for text left over. */
    Expected<void>
    finish()
    {
        if (ok()) {
            if (const std::string_view extra = token(); !extra.empty())
                error_ = strFormat("unexpected '{}' after the last field",
                                   extra);
        }
        if (!ok())
            return makeError(Errc::badCheckpoint, "{}", error_);
        return {};
    }

  private:
    std::string_view
    token()
    {
        const std::size_t begin = rest_.find_first_not_of(" \n");
        if (begin == std::string_view::npos) {
            rest_ = {};
            return {};
        }
        const std::size_t end = rest_.find_first_of(" \n", begin);
        const std::string_view found = rest_.substr(begin, end - begin);
        rest_.remove_prefix(end == std::string_view::npos ? rest_.size()
                                                          : end);
        return found;
    }

    static bool
    parse(std::string_view token, std::string &value)
    {
        value = token;
        return !token.empty();
    }

    template <typename T>
    static bool
    parse(std::string_view token, T &value)
    {
        const char *end = token.data() + token.size();
        const auto [ptr, ec] = std::from_chars(token.data(), end, value);
        return ec == std::errc() && ptr == end && !token.empty();
    }

    std::string_view rest_;
    std::string error_;
};

Expected<void>
readHeader(std::string_view body, SweepCheckpoint &checkpoint)
{
    Fields fields(body.substr(magicLine.size()));
    int valid = 0;
    std::string kind;
    fields.read("valid", valid)
        .read("platform", checkpoint.platform)
        .read("pattern", kind);
    if (kind == "fixed") {
        checkpoint.pattern.kind = PatternSpec::Kind::Fixed;
        fields.value(checkpoint.pattern.word, "pattern");
    } else if (kind == "random") {
        checkpoint.pattern.kind = PatternSpec::Kind::Random;
        fields.value(checkpoint.pattern.oneDensity, "pattern")
            .value(checkpoint.pattern.seed, "pattern");
    } else if (fields.ok()) {
        return makeError(Errc::badCheckpoint, "unknown pattern kind '{}'",
                         kind);
    }
    fields.read("ambientC", checkpoint.ambientC)
        .read("runsPerLevel", checkpoint.runsPerLevel)
        .read("stepMv", checkpoint.stepMv)
        .read("fromMv", checkpoint.fromMv)
        .read("downToMv", checkpoint.downToMv);
    if (auto done = fields.finish(); !done.ok())
        return done.error();
    if (!checkpoint.pattern.wellFormed())
        return makeError(Errc::badCheckpoint,
                         "random pattern density {} is not in [0, 1]",
                         checkpoint.pattern.oneDensity);
    checkpoint.valid = valid != 0;
    return {};
}

Expected<void>
readRecord(std::string_view body, SweepCheckpoint &checkpoint)
{
    Fields fields(body);
    std::size_t count = 0;
    fields.read("points", count);
    for (std::size_t i = 0; i < count && fields.ok(); ++i) {
        SweepPoint &point = checkpoint.completedPoints.emplace_back();
        fields.read("point", point.vccBramMv)
            .readList("runCounts", point.runCounts)
            .read("medianFaults", point.medianFaults)
            .read("faultsPerMbit", point.faultsPerMbit)
            .read("bramPowerW", point.bramPowerW)
            .read("oneToZeroFraction", point.oneToZeroFraction)
            .readList("perBramFaults", point.perBramFaults);
        // Rebuild the streaming statistics by replaying the counts in
        // their original order (Welford is order-sensitive, so replay
        // reproduces the uninterrupted accumulator bit for bit).
        for (double run_count : point.runCounts)
            point.runStats.add(run_count);
    }
    fields.read("currentLevelMv", checkpoint.currentLevelMv)
        .read("runsStarted", checkpoint.runsStarted)
        .readList("currentRunCounts", checkpoint.currentRunCounts);
    return fields.finish();
}

} // namespace

void
saveCheckpointFile(SweepCheckpoint &checkpoint, const std::string &path)
{
    UVOLT_TRACE_SCOPE("checkpoint.save", [&] {
        return telemetry::TraceArgs{{"path", path}};
    });
    auto &registry = telemetry::Registry::global();
    registry.counter("checkpoint.saves").increment();

    SweepCheckpoint::SavedLog &saved = checkpoint.saved;
    std::error_code ec;
    const bool append = saved.path == path &&
        saved.levels <= checkpoint.completedPoints.size() &&
        std::filesystem::file_size(path, ec) == saved.bytes && !ec;
    if (!append)
        saved = {path, 0, 0};

    std::string text;
    text.reserve(recordSizeHint(checkpoint, saved.levels) +
                 (append ? 0 : 512));
    if (!append)
        appendHeader(text, checkpoint);
    appendRecord(text, checkpoint, saved.levels);
    if (auto written =
            append ? appendFileRecord(path, text, Errc::badCheckpoint)
                   : writeFileAtomic(path, text, Errc::badCheckpoint);
        !written.ok())
        fatal("{}", written.error().message);
    saved.levels = checkpoint.completedPoints.size();
    saved.bytes += text.size();
    registry.counter("checkpoint.bytes_written").add(text.size());
}

Expected<SweepCheckpoint>
loadCheckpoint(std::istream &in)
{
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    std::string_view rest = text;
    const std::size_t eol = rest.find('\n');
    if (eol == std::string_view::npos || rest.substr(0, eol) != magicLine)
        return makeError(Errc::badCheckpoint,
                         "not a sweep checkpoint (header '{}')",
                         rest.substr(0, std::min<std::size_t>(eol, 64)));
    const auto header = takeSection(rest);
    if (!header)
        return makeError(Errc::badCheckpoint,
                         "torn or corrupt checkpoint header");

    SweepCheckpoint checkpoint;
    if (auto read = readHeader(*header, checkpoint); !read.ok())
        return read.error();
    bool resumable = false;
    while (const auto record = takeSection(rest)) {
        if (auto read = readRecord(*record, checkpoint); !read.ok())
            return read.error();
        resumable = true;
    }
    checkpoint.valid = checkpoint.valid && resumable;
    return checkpoint;
}

Expected<SweepCheckpoint>
loadCheckpointFile(const std::string &path)
{
    UVOLT_TRACE_SCOPE("checkpoint.load", [&] {
        return telemetry::TraceArgs{{"path", path}};
    });
    telemetry::Registry::global().counter("checkpoint.loads").increment();
    std::ifstream in(path, std::ios::binary);
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
