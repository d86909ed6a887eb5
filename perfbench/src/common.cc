#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench
{

namespace
{

std::uint64_t processStartNs = 0;

/** JSON string literal (names and units are plain ASCII). */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

} // namespace

std::string
Options::scratch(const std::string &leaf) const
{
    return outDir + "/" + leaf;
}

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Result::fail(const std::string &why)
{
    correct = false;
    ++failed;
    notes.push_back("CHECK FAILED: " + why);
}

void
Result::print() const
{
    for (const std::string &note : notes)
        std::printf("# %s\n", note.c_str());
    for (const Metric &metric : metrics)
        std::printf("%-44s %16.6f %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"setup_s\": " + number(setupS);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            json += ", ";
        json += quoted(metrics[i].name) + ": {\"value\": " +
                number(metrics[i].value) +
                ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
markProcessStart()
{
    processStartNs = nowNs();
}

double
secondsSinceStart()
{
    return secondsSince(processStartNs);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
medianOf(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

std::string
withCount(const std::string &label, double value, const std::string &unit,
          std::size_t samples)
{
    char buffer[160];
    std::snprintf(buffer, sizeof buffer, "%s = %.4f %s (n = %zu)",
                  label.c_str(), value, unit.c_str(), samples);
    return buffer;
}

const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> names{
        // characterize: the Listing-1 call order of one fleet job
        "pmbus.board", "harness.fill", "pmbus.setpoint", "pmbus.start_run",
        "vmodel.count", "pmbus.power", "pmbus.readback", "harness.analysis",
        "harness.checkpoint", "mem.make", "mem.count.hbm", "mem.count.sram",
        "mem.read",
        // nn_icbp: pre-process stage, then the Fig 14 curve
        "nn.load", "nn.quantize", "data.testset", "accel.image",
        "harness.fvm", "accel.placement", "accel.program",
        "accel.readback", "nn.eval",
        // serve_open_loop: the load generator's calls
        "loadgen.build", "loadgen.wait", "serve.admit", "loadgen.drain",
        // correctness checks done inside a traced window
        "bench.check",
    };
    return names;
}

namespace
{

bool
samePoint(const uvolt::harness::SweepPoint &a,
          const uvolt::harness::SweepPoint &b)
{
    return a.vccBramMv == b.vccBramMv && a.runCounts == b.runCounts &&
           a.medianFaults == b.medianFaults &&
           a.faultsPerMbit == b.faultsPerMbit &&
           a.perBramFaults == b.perBramFaults &&
           a.bramPowerW == b.bramPowerW &&
           a.oneToZeroFraction == b.oneToZeroFraction &&
           a.runStats.count() == b.runStats.count() &&
           a.runStats.mean() == b.runStats.mean();
}

} // namespace

bool
sameSweep(const uvolt::harness::SweepResult &a,
          const uvolt::harness::SweepResult &b)
{
    if (a.platform != b.platform || a.dieId != b.dieId ||
        a.ambientC != b.ambientC || a.points.size() != b.points.size())
        return false;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        if (!samePoint(a.points[i], b.points[i]))
            return false;
    }
    return true;
}

void
emitAccounting(Result &result, const std::vector<std::string> &layers,
               const std::string &thread, std::uint64_t start_ns,
               std::uint64_t end_ns)
{
    const Accounting acct = account(thread, start_ns, end_ns);
    for (const std::string &layer : layers) {
        const auto it = acct.layers.find(layer);
        const LayerTotals totals =
            it == acct.layers.end() ? LayerTotals{} : it->second;
        result.add(layer + ".calls", static_cast<double>(totals.calls),
                   "count");
        result.add(layer + ".ms", totals.selfMs, "ms");
    }
    for (const auto &[name, totals] : acct.layers) {
        if (std::find(layers.begin(), layers.end(), name) == layers.end())
            result.fail("span '" + name + "' is not a declared layer");
    }
    result.add("harness.residual.ms", acct.residualMs, "ms");
    result.add("trace.wall.ms", acct.wallMs, "ms");
    const double gap = std::fabs(acct.selfSumMs + acct.residualMs -
                                 acct.wallMs);
    if (gap > 1e-6 * acct.wallMs + 1e-6)
        result.fail("layer self times + residual (" +
                    number(acct.selfSumMs + acct.residualMs) +
                    " ms) differ from the traced wall time (" +
                    number(acct.wallMs) + " ms)");
    if (acct.residualMs < 0.0)
        result.fail("negative residual: spans overlap on thread " + thread);
    char line[200];
    std::snprintf(line, sizeof line,
                  "layer accounting on '%s': self %.3f ms + residual "
                  "%.3f ms = wall %.3f ms",
                  thread.c_str(), acct.selfSumMs, acct.residualMs,
                  acct.wallMs);
    result.notes.push_back(line);
}

} // namespace perfbench
