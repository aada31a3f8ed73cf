#include "common/logging.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/thread_annotations.hpp"

namespace vpsim
{

namespace
{

Mutex g_logMutex;
/** Empty means stderr. Swapped by tests via setLogSink(). */
LogSink g_logSink GUARDED_BY(g_logMutex);

/**
 * Format and emit one line under the mutex, so lines from concurrent
 * worker threads (watchdog warnings, --keep-going failure reports)
 * reach the sink whole instead of interleaved.
 */
void
emitLine(const char *prefix, const std::string &message)
{
    MutexLock lock(g_logMutex);
    if (g_logSink) {
        g_logSink(std::string(prefix) + ": " + message);
        return;
    }
    std::fprintf(stderr, "%s: %s\n", prefix, message.c_str());
}

} // namespace

LogSink
setLogSink(LogSink sink)
{
    MutexLock lock(g_logMutex);
    LogSink previous = std::move(g_logSink);
    g_logSink = std::move(sink);
    return previous;
}

void
fatal(const std::string &message)
{
    emitLine("fatal", message);
    std::exit(1);
}

void
panic(const std::string &message)
{
    emitLine("panic", message);
    std::abort();
}

void
panicAt(std::string_view message, const char *file, int line)
{
    std::ostringstream oss;
    oss << message << " (" << file << ":" << line << ")";
    panic(oss.str());
}

void
warn(const std::string &message)
{
    emitLine("warn", message);
}

void
inform(const std::string &message)
{
    emitLine("info", message);
}

} // namespace vpsim
