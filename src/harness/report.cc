#include "harness/report.hh"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <unordered_map>

#include "util/format.hh"
#include "util/fsio.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace uvolt::harness
{

namespace
{

/** Microseconds with nanosecond precision (Chrome's timebase). */
std::string
microseconds(std::uint64_t ns)
{
    return strFormat("{}.{:03}", ns / 1000, ns % 1000);
}

} // namespace

std::string
chromeTraceJson(const std::vector<telemetry::TraceEvent> &events,
                const ThreadNames &thread_names)
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    // Metadata records first: name the process, then each known
    // thread, so Perfetto's timeline rows carry labels.
    if (!thread_names.empty()) {
        out << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":0,\"args\":{\"name\":\"uvolt\"}}";
        first = false;
        for (const auto &[tid, name] : thread_names) {
            out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":"
                << tid << ",\"args\":{\"name\":\""
                << json::escaped(name) << "\"}}";
        }
    }
    for (const auto &event : events) {
        if (!first)
            out << ",";
        first = false;
        out << "\n{\"name\":\"" << json::escaped(event.name)
            << "\",\"cat\":\"uvolt\",\"ph\":\"X\",\"pid\":1,\"tid\":"
            << event.tid << ",\"ts\":" << microseconds(event.startNs)
            << ",\"dur\":" << microseconds(event.durNs);
        // Span/flow linkage rides in args; ids are emitted only when
        // set, so unlinked spans serialize exactly as before PR 8.
        if (!event.args.empty() || event.spanId != 0) {
            out << ",\"args\":{";
            bool first_arg = true;
            for (const auto &[key, value] : event.args) {
                if (!first_arg)
                    out << ",";
                first_arg = false;
                out << "\"" << json::escaped(key) << "\":\""
                    << json::escaped(value) << "\"";
            }
            if (event.spanId != 0) {
                out << (first_arg ? "" : ",") << "\"span\":\""
                    << event.spanId << "\",\"parent\":\""
                    << event.parentId << "\"";
                if (event.flowId != 0)
                    out << ",\"flow\":\"" << event.flowId << "\"";
            }
            out << "}";
        }
        out << "}";
        // Bind a flow point to the slice: an "s"/"t"/"f" record inside
        // the X event above attaches to it, and Perfetto draws the
        // arrows connecting every slice that shares the id. Start and
        // step bind at the slice start; finish binds at the slice END
        // (bp:"e" plus the end timestamp) — a request's terminal span
        // opens back at admission time, and the arrow must point at
        // when the request finished, not where it began.
        if (event.flowPoint != telemetry::FlowPoint::none &&
            event.flowId != 0) {
            const bool finish =
                event.flowPoint == telemetry::FlowPoint::finish;
            const char *ph =
                event.flowPoint == telemetry::FlowPoint::start ? "s"
                : finish                                       ? "f"
                                                               : "t";
            out << ",\n{\"name\":\"request\",\"cat\":\"uvolt.flow\","
                   "\"ph\":\""
                << ph << "\",\"id\":" << event.flowId
                << ",\"pid\":1,\"tid\":" << event.tid << ",\"ts\":"
                << microseconds(finish ? event.startNs + event.durNs
                                       : event.startNs);
            if (finish)
                out << ",\"bp\":\"e\"";
            out << "}";
        }
    }
    out << "\n]}\n";
    return out.str();
}

bool
writeChromeTrace(const std::vector<telemetry::TraceEvent> &events,
                 const std::string &path,
                 const ThreadNames &thread_names)
{
    const auto written =
        writeFileAtomic(path, chromeTraceJson(events, thread_names));
    if (!written) {
        warnc("report", "could not write chrome trace '{}'", path);
        return false;
    }
    return true;
}

bool
writeChromeTrace(const std::string &path)
{
    const telemetry::Registry &registry = telemetry::Registry::global();
    return writeChromeTrace(registry.traceEvents(), path,
                            registry.threadNames());
}

std::uint64_t
Profile::totalNs() const
{
    std::uint64_t total = 0;
    for (const auto &[stack, ns] : folded)
        total += ns;
    return total;
}

std::string
Profile::foldedText() const
{
    std::ostringstream out;
    for (const auto &[stack, ns] : folded)
        out << stack << " " << ns << "\n";
    return out.str();
}

std::vector<FrameStat>
Profile::topFrames(std::size_t n) const
{
    std::map<std::string, FrameStat> stats;
    std::vector<std::string_view> frames;
    for (const auto &[stack, ns] : folded) {
        frames.clear();
        std::size_t begin = 0;
        while (begin <= stack.size()) {
            const std::size_t end = stack.find(';', begin);
            const std::size_t stop =
                end == std::string::npos ? stack.size() : end;
            frames.emplace_back(stack.data() + begin, stop - begin);
            if (end == std::string::npos)
                break;
            begin = end + 1;
        }
        if (frames.empty())
            continue;
        // Total counts each distinct frame of the stack once, so a
        // recursive span cannot exceed the time it was on the stack.
        std::vector<std::string_view> unique(frames);
        std::sort(unique.begin(), unique.end());
        unique.erase(std::unique(unique.begin(), unique.end()),
                     unique.end());
        for (std::string_view frame : unique) {
            auto &stat = stats[std::string(frame)];
            stat.name = frame;
            stat.total += ns;
        }
        stats[std::string(frames.back())].self += ns;
    }

    std::vector<FrameStat> ranked;
    ranked.reserve(stats.size());
    for (auto &[name, stat] : stats)
        ranked.push_back(std::move(stat));
    std::sort(ranked.begin(), ranked.end(),
              [](const FrameStat &a, const FrameStat &b) {
                  if (a.self != b.self)
                      return a.self > b.self;
                  if (a.total != b.total)
                      return a.total > b.total;
                  return a.name < b.name;
              });
    if (ranked.size() > n)
        ranked.resize(n);
    return ranked;
}

Profile
foldSpans(const std::vector<telemetry::TraceEvent> &events)
{
    using telemetry::TraceEvent;
    std::unordered_map<std::uint64_t, const TraceEvent *> scoped;
    for (const TraceEvent &event : events) {
        if (event.scoped && event.spanId != 0)
            scoped.emplace(event.spanId, &event);
    }
    const auto parent_of = [&](const TraceEvent &event) {
        const auto it = scoped.find(event.parentId);
        return it != scoped.end() && it->second->tid == event.tid
            ? it->second
            : nullptr;
    };

    std::unordered_map<const TraceEvent *, std::uint64_t> child_ns;
    for (const TraceEvent &event : events) {
        if (!event.scoped)
            continue;
        if (const TraceEvent *parent = parent_of(event))
            child_ns[parent] += event.durNs;
    }

    Profile profile;
    std::vector<const char *> chain;
    for (const TraceEvent &event : events) {
        if (!event.scoped)
            continue;
        chain.clear();
        for (const TraceEvent *at = &event; at; at = parent_of(*at))
            chain.push_back(at->name);
        std::string key;
        for (auto name = chain.rbegin(); name != chain.rend(); ++name) {
            if (name != chain.rbegin())
                key.push_back(';');
            key += *name;
        }
        // Same-thread children nest inside their parent, so the clamp
        // only ever fires on hand-built, overlapping input.
        const auto children = child_ns.find(&event);
        const std::uint64_t covered = children == child_ns.end()
            ? 0
            : std::min(children->second, event.durNs);
        profile.folded[key] += event.durNs - covered;
        ++profile.spans;
    }
    return profile;
}

bool
writeFolded(const Profile &profile, const std::string &path)
{
    const auto written = writeFileAtomic(path, profile.foldedText());
    if (!written) {
        warnc("report", "could not write folded profile '{}'", path);
        return false;
    }
    return true;
}

namespace
{

/** "serve.e2e_ms" -> "uvolt_serve_e2e_ms" (Prometheus name charset). */
std::string
prometheusName(std::string_view name)
{
    std::string out = "uvolt_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

/** Shortest round-trip rendering ("0.05", "1", "2000", "1234567.25"):
 *  parsing the text gives back the exact double. */
std::string
prometheusNumber(double value)
{
    char buffer[32];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
    return std::string(buffer, result.ptr);
}

} // namespace

std::string
prometheusText(const telemetry::MetricsSnapshot &snapshot)
{
    std::ostringstream out;
    for (const auto &[name, value] : snapshot.counters) {
        const std::string prom = prometheusName(name);
        out << "# TYPE " << prom << " counter\n"
            << prom << " " << value << "\n";
    }
    for (const auto &[name, value] : snapshot.gauges) {
        const std::string prom = prometheusName(name);
        out << "# TYPE " << prom << " gauge\n"
            << prom << " " << prometheusNumber(value) << "\n";
    }
    for (const auto &histogram : snapshot.histograms) {
        const std::string prom = prometheusName(histogram.name);
        out << "# TYPE " << prom << " histogram\n";
        // Prometheus buckets are cumulative; the registry's are
        // per-bucket counts, so running-sum them on the way out.
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < histogram.bounds.size(); ++b) {
            cumulative += histogram.buckets[b];
            out << prom << "_bucket{le=\""
                << prometheusNumber(histogram.bounds[b]) << "\"} "
                << cumulative << "\n";
        }
        out << prom << "_bucket{le=\"+Inf\"} " << histogram.count
            << "\n";
        out << prom << "_sum " << prometheusNumber(histogram.sum)
            << "\n";
        out << prom << "_count " << histogram.count << "\n";
    }
    return out.str();
}

bool
writePrometheus(const telemetry::MetricsSnapshot &snapshot,
                const std::string &path)
{
    const auto written = writeFileAtomic(path, prometheusText(snapshot));
    if (!written) {
        warnc("report", "could not write prometheus snapshot '{}'", path);
        return false;
    }
    return true;
}

namespace
{

/** JS string literal body: JSON escapes plus "<" as < so folded
 *  data can never form a "</script>" and truncate the document. */
std::string
scriptEscaped(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '<') {
            out += "\\u003c";
        } else {
            out += json::escaped(std::string_view(&c, 1));
        }
    }
    return out;
}

} // namespace

std::string
flameGraphHtml(const Profile &profile,
               const std::string &title)
{
    std::ostringstream out;
    out << "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
        << "<title>uvolt flame graph</title>\n"
        << "<style>\n"
        << "body{font:13px monospace;margin:16px;background:#fdfdfd}\n"
        << "#title{font-weight:bold;margin-bottom:2px}\n"
        << "#meta{color:#666;margin-bottom:10px}\n"
        << "#graph{position:relative}\n"
        << ".frame{position:absolute;height:20px;overflow:hidden;"
        << "white-space:nowrap;box-sizing:border-box;border:1px solid "
        << "#fdfdfd;border-radius:2px;padding:2px 3px;cursor:pointer;"
        << "color:#222}\n"
        << ".frame:hover{filter:brightness(0.85)}\n"
        << "#reset{color:#33c;cursor:pointer;margin-bottom:8px;"
        << "display:inline-block}\n"
        << "</style>\n</head>\n<body>\n"
        << "<div id=\"title\">" << json::escaped(title) << "</div>\n"
        << "<div id=\"meta\">" << profile.spans << " spans, "
        << profile.folded.size() << " distinct stacks, "
        << strFormat("{:.3f}", static_cast<double>(profile.totalNs()) / 1e6)
        << " ms</div>\n"
        << "<span id=\"reset\" onclick=\"render(root)\">reset "
        << "zoom</span>\n<div id=\"graph\"></div>\n<script>\n"
        << "const folded = \"" << scriptEscaped(profile.foldedText())
        << "\";\n";
    out << R"JS(
// Build the call tree from the collapsed-stack lines.
const root = {name: "all", value: 0, children: new Map()};
for (const line of folded.split("\n")) {
  const cut = line.lastIndexOf(" ");
  if (cut <= 0) continue;
  const ns = Number(line.slice(cut + 1));
  if (!Number.isFinite(ns)) continue;
  root.value += ns;
  let node = root;
  for (const frame of line.slice(0, cut).split(";")) {
    if (!node.children.has(frame))
      node.children.set(frame, {name: frame, value: 0,
                                children: new Map()});
    node = node.children.get(frame);
    node.value += ns;
  }
}

// Deterministic warm palette keyed on the frame name.
function color(name) {
  let hash = 2166136261;
  for (const c of name) hash = (hash ^ c.charCodeAt(0)) * 16777619 >>> 0;
  return `hsl(${20 + hash % 40}, ${70 + (hash >> 8) % 25}%, ` +
         `${62 + (hash >> 16) % 18}%)`;
}

// Icicle layout: absolutely positioned boxes, width proportional to
// time on the stack, children packed left-to-right under their parent (the
// remainder past the last child is the parent's self time). Click a
// frame to zoom its subtree, "reset zoom" to go back.
function render(focus) {
  const graph = document.getElementById("graph");
  graph.innerHTML = "";
  let maxDepth = 0;
  const place = (node, x, width, depth) => {
    maxDepth = Math.max(maxDepth, depth);
    const div = document.createElement("div");
    div.className = "frame";
    div.style.left = (x * 100) + "%";
    div.style.width = (width * 100) + "%";
    div.style.top = (depth * 21) + "px";
    div.style.background = node === focus ? "#ddd" : color(node.name);
    const pct = (100 * node.value / focus.value).toFixed(1);
    div.textContent = node.name;
    div.title = `${node.name} — ${(node.value / 1e6).toFixed(3)} ms ` +
                `(${pct}% of view)`;
    div.onclick = () => render(node);
    graph.appendChild(div);
    let childX = x;
    const kids = [...node.children.values()]
        .sort((a, b) => a.name < b.name ? -1 : 1);
    for (const child of kids) {
      const childWidth = width * child.value / node.value;
      place(child, childX, childWidth, depth + 1);
      childX += childWidth;
    }
  };
  place(focus, 0, 1, 0);
  graph.style.height = ((maxDepth + 1) * 21) + "px";
}
render(root);
)JS";
    out << "</script>\n</body>\n</html>\n";
    return out.str();
}

bool
writeFlameGraph(const Profile &profile,
                const std::string &title, const std::string &path)
{
    const auto written =
        writeFileAtomic(path, flameGraphHtml(profile, title));
    if (!written) {
        warnc("report", "could not write flame graph '{}'", path);
        return false;
    }
    return true;
}

MetricsPulse::MetricsPulse(std::string path,
                           std::chrono::milliseconds period)
    : path_(std::move(path)), period_(period)
{
    thread_ = std::thread([this] {
        // Name the exposition thread so traces and profiles label it
        // instead of showing an anonymous tid.
        telemetry::setCurrentThreadName("metrics-pulse");
        std::unique_lock lock(mutex_);
        while (!stopping_) {
            lock.unlock();
            const bool ok = writePrometheus(
                telemetry::Registry::global().metrics(), path_);
            lock.lock();
            if (ok)
                ++writes_;
            cv_.wait_for(lock, period_, [this] { return stopping_; });
        }
    });
}

MetricsPulse::~MetricsPulse()
{
    stop();
}

void
MetricsPulse::stop()
{
    {
        std::lock_guard lock(mutex_);
        if (stopping_) // already stopped; keep stop() idempotent
            return;
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    // One final write so the file reflects the end state of the run.
    if (writePrometheus(telemetry::Registry::global().metrics(), path_)) {
        std::lock_guard lock(mutex_);
        ++writes_;
    }
}

std::uint64_t
MetricsPulse::writes() const
{
    std::lock_guard lock(mutex_);
    return writes_;
}

} // namespace uvolt::harness
