#include "tracer.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench
{

namespace
{

const std::chrono::steady_clock::time_point epoch =
    std::chrono::steady_clock::now();

std::atomic<bool> tracingOn{false};
std::atomic<int> nextThreadId{0};

std::mutex spansMutex;
std::vector<Span> spans; // guarded by spansMutex

thread_local int currentSpan = -1;
thread_local int threadId = -1;

int
myThreadId()
{
    if (threadId < 0)
        threadId = nextThreadId.fetch_add(1);
    return threadId;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

void
setTracing(bool on)
{
    tracingOn.store(on);
}

bool
tracing()
{
    return tracingOn.load(std::memory_order_relaxed);
}

const std::vector<Span> &
recordedSpans()
{
    return spans;
}

std::size_t
spanCount()
{
    std::lock_guard<std::mutex> lock(spansMutex);
    return spans.size();
}

ScopedSpan::ScopedSpan(const char *name, int cell, int parent, int width)
{
    if (!tracing())
        return;
    Span span;
    span.name = name;
    span.parent = parent == inherit ? currentSpan : parent;
    span.cell = cell;
    span.thread = myThreadId();
    span.width = width;
    {
        std::lock_guard<std::mutex> lock(spansMutex);
        if (span.cell < 0 && span.parent >= 0)
            span.cell = spans[static_cast<std::size_t>(span.parent)].cell;
        span.start = nowNs();
        spans.push_back(span);
        spanId = static_cast<int>(spans.size() - 1);
    }
    savedCurrent = currentSpan;
    currentSpan = spanId;
}

ScopedSpan::~ScopedSpan()
{
    if (spanId < 0)
        return;
    const std::int64_t end = nowNs();
    {
        std::lock_guard<std::mutex> lock(spansMutex);
        spans[static_cast<std::size_t>(spanId)].end = end;
    }
    currentSpan = savedCurrent;
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &all, std::size_t first, std::size_t last)
{
    std::vector<std::int64_t> self(last - first, 0);
    for (std::size_t i = first; i < last; ++i)
        self[i - first] = all[i].duration() * all[i].width;
    for (std::size_t i = first; i < last; ++i) {
        const int parent = all[i].parent;
        if (parent >= static_cast<int>(first) &&
            parent < static_cast<int>(last))
            self[static_cast<std::size_t>(parent) - first] -=
                all[i].duration();
    }
    for (std::int64_t &value : self)
        value = value < 0 ? 0 : value;
    return self;
}

std::string
layerOf(const char *name)
{
    const std::string text(name);
    return text.substr(0, text.find('.'));
}

bool
writeSpans(const std::string &path, const std::vector<Span> &all)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    for (const Span &span : all) {
        std::fprintf(file,
                     "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"parent\":%d,\"cell\":%d,\"thread\":%d}\n",
                     span.name, static_cast<long long>(span.start),
                     static_cast<long long>(span.end), span.parent,
                     span.cell, span.thread);
    }
    return std::fclose(file) == 0;
}

} // namespace perfbench
