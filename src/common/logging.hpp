/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * fatal() is for user errors (bad configuration, malformed input): it prints
 * the message and exits with status 1. panic() is for internal invariant
 * violations (simulator bugs): it prints the message and aborts.
 */

#ifndef VPSIM_COMMON_LOGGING_HPP
#define VPSIM_COMMON_LOGGING_HPP

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace vpsim
{

/**
 * Receives each complete, prefixed log line ("warn: ...").
 *
 * Sinks run under the logging mutex so concurrent workers' lines never
 * interleave; a sink must therefore not log (self-deadlock) and should
 * return quickly.
 */
using LogSink = std::function<void(std::string_view line)>;

/**
 * Replace the process log sink (empty function restores stderr).
 *
 * @return The previous sink (empty when stderr was active), so tests
 *         can capture warnings and restore the old sink afterwards.
 */
LogSink setLogSink(LogSink sink);

/** Print "fatal: <message>" to stderr and exit(1). For user errors. */
[[noreturn]] void fatal(const std::string &message);

/** Print "panic: <message>" to stderr and abort(). For simulator bugs. */
[[noreturn]] void panic(const std::string &message);

/** Print "warn: <message>" to stderr and continue. */
void warn(const std::string &message);

/** Print "info: <message>" to stderr and continue. */
void inform(const std::string &message);

/** panic() with " (file:line)" appended: panicIf()'s failure path. */
[[noreturn]] void panicAt(std::string_view message, const char *file,
                          int line);

/**
 * Check an internal invariant; panics with location info when violated.
 *
 * Unlike assert(), the check is always compiled in: simulator results must
 * not silently change between debug and release builds. The message is
 * formatted out of line, so the check inlines to a compare and a branch
 * even on per-instruction paths.
 */
inline void
panicIf(bool condition, std::string_view message,
        const char *file = __builtin_FILE(), int line = __builtin_LINE())
{
    if (condition) [[unlikely]]
        panicAt(message, file, line);
}

/** Check a user-facing precondition; fatal()s when violated. */
inline void
fatalIf(bool condition, std::string_view message)
{
    if (condition)
        fatal(std::string(message));
}

} // namespace vpsim

#endif // VPSIM_COMMON_LOGGING_HPP
