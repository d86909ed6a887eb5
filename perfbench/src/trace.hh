/**
 * @file
 * The benchmark's own span recorder. Spans wrap calls into the
 * program's public API from the benchmark side; they are kept in memory
 * per thread and written out once, when the run ends. Recording is off
 * unless enable() was called, and a disabled Scope costs one branch, so
 * the untraced (end-to-end) runs share the same driver code.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds (steady_clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds elapsed since @a start_ns. */
inline double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

/** One recorded span. parent is an index into the same thread's spans
 *  (noParent for a root); id names the job or request it served. */
struct Span
{
    static constexpr std::uint32_t noParent = 0xffffffffu;

    std::uint32_t name = 0;
    std::uint32_t parent = noParent;
    std::uint64_t id = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

/** Per-name totals derived from the spans of one thread. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    double selfMs = 0.0; ///< durations minus time covered by children
};

/** Accounting of one thread's timeline over [startNs, endNs]. */
struct Accounting
{
    std::map<std::string, LayerTotals> layers;
    double wallMs = 0.0;
    double residualMs = 0.0; ///< wall time covered by no span
    double selfSumMs = 0.0;  ///< sum of every layer's self time
};

/** Interned span name. */
using NameId = std::uint32_t;

/** Intern a span name (takes a lock: intern before timing starts). */
NameId spanName(const std::string &name);

/** Start recording (traced run) or leave off (end-to-end run). */
void enableTracing();
void disableTracing();
bool tracingEnabled();

/** Name this thread's timeline ("main", "generator", ...). */
void nameThisThread(const std::string &name);

/** RAII span around one call into the program. */
class Scope
{
  public:
    explicit Scope(NameId name, std::uint64_t id = 0);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::int64_t index_ = -1;
};

/**
 * Self time per span name, calls, and the residual (time no span
 * covers) for the named thread's spans that start and end inside
 * [start_ns, end_ns].
 */
Accounting account(const std::string &thread, std::uint64_t start_ns,
                   std::uint64_t end_ns);

/** Durations (ms) of the spans with this name, on every thread. */
std::vector<double> durationsMs(NameId name);

/** Write every span as CSV (thread,name,start_ns,end_ns,parent,id);
 *  returns false on I/O failure. */
bool writeSpans(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
