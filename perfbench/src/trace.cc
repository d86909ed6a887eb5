#include "trace.hh"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench
{

namespace
{

struct ThreadBuffer
{
    std::string name;
    std::vector<Span> spans;
    std::vector<std::uint32_t> open; ///< stack of unfinished span indices
};

struct Registry
{
    std::mutex mutex; ///< guards buffers and names
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    std::vector<std::string> names;
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

std::atomic<bool> enabled{false};

ThreadBuffer &
thisThread()
{
    thread_local ThreadBuffer *mine = nullptr;
    if (!mine) {
        Registry &reg = registry();
        std::lock_guard lock(reg.mutex);
        reg.buffers.push_back(std::make_unique<ThreadBuffer>());
        mine = reg.buffers.back().get();
        mine->name = "thread-" + std::to_string(reg.buffers.size());
        mine->spans.reserve(1u << 16);
    }
    return *mine;
}

double
spanMs(const Span &span)
{
    return static_cast<double>(span.endNs - span.startNs) / 1e6;
}

bool
inside(const Span &span, std::uint64_t start_ns, std::uint64_t end_ns)
{
    return span.endNs != 0 && span.startNs >= start_ns &&
           span.endNs <= end_ns;
}

} // namespace

NameId
spanName(const std::string &name)
{
    Registry &reg = registry();
    std::lock_guard lock(reg.mutex);
    for (std::size_t i = 0; i < reg.names.size(); ++i) {
        if (reg.names[i] == name)
            return static_cast<NameId>(i);
    }
    reg.names.push_back(name);
    return static_cast<NameId>(reg.names.size() - 1);
}

void
enableTracing()
{
    enabled.store(true, std::memory_order_relaxed);
}

void
disableTracing()
{
    enabled.store(false, std::memory_order_relaxed);
}

bool
tracingEnabled()
{
    return enabled.load(std::memory_order_relaxed);
}

void
nameThisThread(const std::string &name)
{
    thisThread().name = name;
}

Scope::Scope(NameId name, std::uint64_t id)
{
    if (!tracingEnabled())
        return;
    ThreadBuffer &buffer = thisThread();
    Span span;
    span.name = name;
    span.id = id;
    span.parent = buffer.open.empty() ? Span::noParent : buffer.open.back();
    index_ = static_cast<std::int64_t>(buffer.spans.size());
    buffer.open.push_back(static_cast<std::uint32_t>(index_));
    span.startNs = nowNs();
    buffer.spans.push_back(span);
}

Scope::~Scope()
{
    if (index_ < 0)
        return;
    ThreadBuffer &buffer = thisThread();
    buffer.spans[static_cast<std::size_t>(index_)].endNs = nowNs();
    buffer.open.pop_back();
}

Accounting
account(const std::string &thread, std::uint64_t start_ns,
        std::uint64_t end_ns)
{
    Registry &reg = registry();
    std::lock_guard lock(reg.mutex);
    Accounting result;
    result.wallMs = static_cast<double>(end_ns - start_ns) / 1e6;
    double covered_ms = 0.0;
    for (const auto &buffer : reg.buffers) {
        if (buffer->name != thread)
            continue;
        const std::vector<Span> &spans = buffer->spans;
        std::vector<double> child_ms(spans.size(), 0.0);
        for (const Span &span : spans) {
            if (inside(span, start_ns, end_ns) &&
                span.parent != Span::noParent)
                child_ms[span.parent] += spanMs(span);
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            if (!inside(span, start_ns, end_ns))
                continue;
            LayerTotals &totals = result.layers[reg.names[span.name]];
            ++totals.calls;
            totals.selfMs += spanMs(span) - child_ms[i];
            if (span.parent == Span::noParent ||
                !inside(spans[span.parent], start_ns, end_ns))
                covered_ms += spanMs(span);
        }
    }
    for (const auto &[name, totals] : result.layers)
        result.selfSumMs += totals.selfMs;
    result.residualMs = result.wallMs - covered_ms;
    return result;
}

std::vector<double>
durationsMs(NameId name)
{
    Registry &reg = registry();
    std::lock_guard lock(reg.mutex);
    std::vector<double> out;
    for (const auto &buffer : reg.buffers) {
        for (const Span &span : buffer->spans) {
            if (span.name == name && span.endNs != 0)
                out.push_back(spanMs(span));
        }
    }
    return out;
}

bool
writeSpans(const std::string &path)
{
    Registry &reg = registry();
    std::lock_guard lock(reg.mutex);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fputs("thread,name,start_ns,end_ns,parent,id\n", out);
    for (const auto &buffer : reg.buffers) {
        for (const Span &span : buffer->spans) {
            const long long parent = span.parent == Span::noParent
                ? -1
                : static_cast<long long>(span.parent);
            std::fprintf(out, "%s,%s,%llu,%llu,%lld,%llu\n",
                         buffer->name.c_str(), reg.names[span.name].c_str(),
                         static_cast<unsigned long long>(span.startNs),
                         static_cast<unsigned long long>(span.endNs),
                         parent, static_cast<unsigned long long>(span.id));
        }
    }
    return std::fclose(out) == 0;
}

} // namespace perfbench
