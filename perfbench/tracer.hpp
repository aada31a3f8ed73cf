/**
 * @file
 * In-memory span recorder for vpbench.
 *
 * A span is one timed call across a layer boundary: its name (whose
 * prefix up to the first '.' names the layer), start and end on the
 * steady clock, the span that caused it, the grid cell it belongs to,
 * and the thread that ran it. Spans are opened and closed only from
 * vpbench's own code, around calls into the simulator's public API;
 * nothing inside the simulator is instrumented.
 *
 * Recording is off unless setTracing(true) was called, in which case a
 * ScopedSpan costs two clock reads and two short critical sections.
 * The spans stay in memory and are written out once, at exit.
 */

#ifndef VPSIM_PERFBENCH_TRACER_HPP
#define VPSIM_PERFBENCH_TRACER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** One recorded span. Times are nanoseconds since the tracer's epoch. */
struct Span
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Index of the causing span, -1 for a root. */
    int parent = -1;
    /** Grid cell the span belongs to, -1 outside cells. */
    int cell = -1;
    /** Small dense id of the recording thread. */
    int thread = 0;
    /**
     * Threads the span's children may run on: 1 for a plain call, the
     * worker count for a span that waits on a parallel batch (its idle
     * worker time is charged to the span's own layer).
     */
    int width = 1;

    std::int64_t duration() const { return end - start; }
};

/** Nanoseconds since the tracer's epoch on the steady clock. */
std::int64_t nowNs();

/** Turn span recording on or off (off by default). */
void setTracing(bool on);
bool tracing();

/** All spans recorded so far (call only when no span is open). */
const std::vector<Span> &recordedSpans();

/** Span count so far; spans recorded later have larger indices. */
std::size_t spanCount();

/**
 * RAII span around one call. A no-op when tracing is off. By default
 * the parent is the innermost span open on the calling thread; a batch
 * job running on a pool thread passes its batch span explicitly.
 */
class ScopedSpan
{
  public:
    static constexpr int inherit = -2;

    explicit ScopedSpan(const char *name, int cell = -1,
                        int parent = inherit, int width = 1);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Index of this span in recordedSpans(), -1 when not recording. */
    int id() const { return spanId; }

  private:
    int spanId = -1;
    int savedCurrent = -1;
};

/**
 * Self time of every span in [@p first, @p last): its duration times
 * its width, minus the time of its direct children. Clamped at zero.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans,
                                    std::size_t first, std::size_t last);

/** Layer of a span name: the text before the first '.'. */
std::string layerOf(const char *name);

/** Write @p spans as JSON lines (one object per span) to @p path. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace perfbench

#endif // VPSIM_PERFBENCH_TRACER_HPP
