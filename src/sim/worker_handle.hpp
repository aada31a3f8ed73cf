/**
 * @file
 * One forked worker process of runGrid's process executor
 * (`--fleet-workers N`): spawn, monitor, classify its death.
 *
 * A worker is a fork() of the running bench: it already holds the
 * traces (copy-on-write) and the grid's cell closure, so nothing is
 * re-executed or re-parsed. The child gets the write end of a
 * heartbeat pipe, and the parent reads progress frames from the other
 * end to tell a *slow* worker from a *hung* one.
 *
 * Exit classification is the executor's failure taxonomy: a worker
 * that dies reports *how* through its exit status, and the parent maps
 * that onto the repo-wide StatusCode classes to pick a recovery (retry
 * transient I/O, recompute corrupt results, bisect repeated crashes
 * down to the poisoned cell).
 */

#ifndef VPSIM_SIM_WORKER_HANDLE_HPP
#define VPSIM_SIM_WORKER_HANDLE_HPP

#include <sys/types.h>

#include <functional>

#include "common/cancellation.hpp"
#include "common/status.hpp"

namespace vpsim
{

/** Exit codes a worker process uses to report its failure class. */
enum WorkerExitCode : int
{
    kWorkerExitOk = 0,
    kWorkerExitIo = 41,       ///< StatusCode::kIo (e.g. ENOSPC on store).
    kWorkerExitCorrupt = 42,  ///< StatusCode::kCorrupt.
    kWorkerExitTimeout = 44,  ///< StatusCode::kTimeout.
    kWorkerExitInternal = 45, ///< StatusCode::kInternal (model bug).
};

/**
 * Map a waitpid() status to the failure class it reports.
 *
 * Death by signal — SIGKILL, SIGSEGV, an abort() in a poisoned cell —
 * is kInternal: the worker never got to explain itself, and repeated
 * unexplained deaths are what bisection exists for. Unknown exit codes
 * are also kInternal (a worker that can't follow the protocol is not
 * to be trusted about anything else).
 */
StatusCode classifyExit(int wait_status);

/** Map a worker Status to the exit code that reports it. */
WorkerExitCode exitCodeForStatus(StatusCode code);

/** A forked worker child and its heartbeat channel. */
class WorkerHandle
{
  public:
    /** The child's work: runs in the forked process, beats @p heartbeat
     *  and returns the code the child exits with. */
    using Body = std::function<WorkerExitCode(HeartbeatWriter &heartbeat)>;

    WorkerHandle() = default;
    ~WorkerHandle();

    WorkerHandle(const WorkerHandle &) = delete;
    WorkerHandle &operator=(const WorkerHandle &) = delete;
    WorkerHandle(WorkerHandle &&other) noexcept;
    WorkerHandle &operator=(WorkerHandle &&other) noexcept;

    /**
     * Flush stdio, create a heartbeat pipe and fork. The child runs
     * @p body and leaves through _exit() with its code (an escaping
     * exception exits kWorkerExitInternal): it never returns into the
     * caller and never runs destructors of the parent's objects. kIo
     * on pipe/fork failure.
     */
    [[nodiscard]] Status spawn(const Body &body);

    /**
     * Non-blocking reap. Returns true when the child has exited, with
     * the raw waitpid status in @p wait_status; the handle then no
     * longer owns a process.
     */
    bool poll(int *wait_status);

    /** Drain heartbeat frames; true when at least one arrived since
     *  the last call. */
    bool pollHeartbeat();

    /** SIGKILL the child (hung or superseded). Safe when not running. */
    void kill9();

  private:
    void reset();

    pid_t childPid = -1;
    HeartbeatReader heartbeats;
};

} // namespace vpsim

#endif // VPSIM_SIM_WORKER_HANDLE_HPP
