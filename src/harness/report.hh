/**
 * @file
 * Telemetry exporters: Chrome trace-event JSON, exact span profiles,
 * and metrics snapshots.
 *
 * The trace exporter serializes the registry's spans as the Chrome
 * trace-event format ("X" complete events, microsecond timebase), the
 * file format Perfetto and chrome://tracing load directly — open
 * ui.perfetto.dev and drop the file in. foldSpans() reads the same
 * event list and folds it into an exact self-time profile (collapsed
 * stacks in integer ns, the input of the HTML flame graph and of every
 * hot-frames table). A metrics snapshot has one document, the
 * Prometheus text exposition format: scrapers read it as is, and
 * scripts/check_trace.py --prometheus gates it.
 */

#ifndef UVOLT_HARNESS_REPORT_HH
#define UVOLT_HARNESS_REPORT_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/telemetry.hh"

namespace uvolt::harness
{

/** (tid, label) pairs exported as thread_name metadata records. */
using ThreadNames = std::vector<std::pair<std::uint32_t, std::string>>;

/**
 * Serialize spans as a Chrome trace-event JSON document. When
 * @a thread_names is nonempty, process_name/thread_name "M" metadata
 * records precede the spans, so Perfetto shows "fleet-worker-3"
 * timelines instead of bare tids.
 */
std::string chromeTraceJson(const std::vector<telemetry::TraceEvent> &events,
                            const ThreadNames &thread_names = {});

/**
 * Write @a events to @a path (parent directories created), Chrome
 * trace-event JSON. Returns false with a warning on I/O failure, like
 * writeCsv(), so benches keep running in read-only environments.
 */
bool writeChromeTrace(const std::vector<telemetry::TraceEvent> &events,
                      const std::string &path,
                      const ThreadNames &thread_names = {});

/** Export the global registry's spans and thread names to @a path. */
bool writeChromeTrace(const std::string &path);

/** Per-frame self/total time for the hot-frames tables. */
struct FrameStat
{
    std::string name;
    std::uint64_t self = 0;  ///< ns with this frame innermost
    std::uint64_t total = 0; ///< ns with this frame anywhere on stack
};

/** Exact self time per span path, folded from recorded spans. */
struct Profile
{
    std::uint64_t spans = 0; ///< scoped spans folded in

    /** folded key ("a;b;c") -> self ns; map order = stable text. */
    std::map<std::string, std::uint64_t> folded;

    bool empty() const { return folded.empty(); }

    /** Sum of every self time: the summed root-span durations. */
    std::uint64_t totalNs() const;

    /**
     * Collapsed-stack text, one "frame;frame;frame ns" line per
     * distinct stack in lexicographic key order — the exact format
     * flamegraph.pl / speedscope / inferno consume.
     */
    std::string foldedText() const;

    /**
     * The @a n hottest frames ordered by self ns (then total, then
     * name). Self sums the stacks where the frame is innermost; total
     * sums every stack that contains it, a recursive frame once.
     */
    std::vector<FrameStat> topFrames(std::size_t n) const;
};

/**
 * Fold recorded spans into a profile. Only scoped spans
 * (TraceEvent::scoped) count: explicit-interval spans measure waiting
 * or bookkeeping, not time the recording thread spent working. A
 * span's profile parent is its parentId when that span is scoped and
 * on the same thread; otherwise (a cross-thread flow parent, or a
 * parent not in @a events) the span is a root. Each span contributes
 * self = durNs - sum of its profile children's durNs under the key of
 * its name chain from the root, so the self times of a root's subtree
 * sum exactly to the root's durNs.
 */
Profile foldSpans(const std::vector<telemetry::TraceEvent> &events);

/** Write Profile::foldedText() crash-atomically; false on I/O error. */
bool writeFolded(const Profile &profile, const std::string &path);

/**
 * Render a snapshot in the Prometheus text exposition format: every
 * metric prefixed "uvolt_" (any character outside [A-Za-z0-9_] becomes
 * '_'), counters and gauges as single samples, histograms as cumulative
 * "_bucket" series with exact `le` bounds plus "+Inf", "_sum", and
 * "_count" — the layout promtool and any Prometheus scraper accept
 * verbatim. Numbers print in their shortest round-trip form.
 */
std::string prometheusText(const telemetry::MetricsSnapshot &snapshot);

/** Write prometheusText() to @a path crash-atomically (tmp + rename),
 *  so a concurrent scrape never reads a torn file. */
bool writePrometheus(const telemetry::MetricsSnapshot &snapshot,
                     const std::string &path);

/**
 * Render a profile as a self-contained HTML flame graph: the folded
 * stacks are embedded in the document and laid out by a small inline
 * script (nested proportional boxes, click to zoom, hover for ms) —
 * no external viewer, library, or network access needed. @a title
 * labels the page ("ext_fleet — 1553 spans, 50.9 ms").
 */
std::string flameGraphHtml(const Profile &profile,
                           const std::string &title);

/** Write flameGraphHtml() to @a path (parent directories created). */
bool writeFlameGraph(const Profile &profile,
                     const std::string &title, const std::string &path);

/**
 * Periodic live exposition: a background thread that rewrites @a path
 * with the global registry's current snapshot every @a period. stop()
 * (or destruction) writes one final snapshot so even a short-lived
 * process leaves a complete file behind.
 */
class MetricsPulse
{
  public:
    MetricsPulse(std::string path, std::chrono::milliseconds period);
    ~MetricsPulse();

    MetricsPulse(const MetricsPulse &) = delete;
    MetricsPulse &operator=(const MetricsPulse &) = delete;

    /** Final write + join; idempotent. */
    void stop();

    /** Snapshots written so far (including the final one). */
    std::uint64_t writes() const;

  private:
    std::string path_;
    std::chrono::milliseconds period_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    std::uint64_t writes_ = 0;
    std::thread thread_;
};

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_REPORT_HH
