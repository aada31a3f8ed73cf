#include "sim/worker_handle.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>

#include "common/logging.hpp"

namespace vpsim
{

StatusCode
classifyExit(int wait_status)
{
    if (WIFSIGNALED(wait_status))
        return StatusCode::kInternal;
    if (!WIFEXITED(wait_status))
        return StatusCode::kInternal;
    switch (WEXITSTATUS(wait_status)) {
      case kWorkerExitOk: return StatusCode::kOk;
      case kWorkerExitIo: return StatusCode::kIo;
      case kWorkerExitCorrupt: return StatusCode::kCorrupt;
      case kWorkerExitTimeout: return StatusCode::kTimeout;
      // Explicit, not via default: the default arm is for codes no
      // enumerator declares (a crashed or foreign child), and the
      // taxonomy checker holds every declared code to an explicit
      // classification.
      case kWorkerExitInternal: return StatusCode::kInternal;
      default: return StatusCode::kInternal;
    }
}

WorkerExitCode
exitCodeForStatus(StatusCode code)
{
    switch (code) {
      case StatusCode::kOk: return kWorkerExitOk;
      case StatusCode::kIo: return kWorkerExitIo;
      case StatusCode::kCorrupt: return kWorkerExitCorrupt;
      case StatusCode::kTimeout: return kWorkerExitTimeout;
      case StatusCode::kCanceled:
      case StatusCode::kInternal: return kWorkerExitInternal;
    }
    return kWorkerExitInternal;
}

WorkerHandle::~WorkerHandle()
{
    // A destructed handle must not leak a live child: kill and reap so
    // a parent unwinding on error leaves no orphans behind.
    kill9();
    if (childPid > 0) {
        int ignored = 0;
        (void)::waitpid(childPid, &ignored, 0);
    }
    reset();
}

WorkerHandle::WorkerHandle(WorkerHandle &&other) noexcept
    : childPid(other.childPid),
      heartbeats(std::move(other.heartbeats))
{
    other.childPid = -1;
}

WorkerHandle &
WorkerHandle::operator=(WorkerHandle &&other) noexcept
{
    if (this != &other) {
        kill9();
        if (childPid > 0) {
            int ignored = 0;
            (void)::waitpid(childPid, &ignored, 0);
        }
        reset();
        childPid = other.childPid;
        heartbeats = std::move(other.heartbeats);
        other.childPid = -1;
    }
    return *this;
}

Status
WorkerHandle::spawn(const Body &body)
{
    panicIf(childPid > 0, "WorkerHandle::spawn while a child is running");

    int fds[2] = {-1, -1};
    if (::pipe2(fds, O_CLOEXEC) != 0) {
        return Status::error(StatusCode::kIo,
                             std::string("pipe2 failed: ") +
                                 std::strerror(errno));
    }
    // Buffered output would otherwise be written twice: once by the
    // parent and once by the child's copy of the buffer.
    std::fflush(stdout);
    std::fflush(stderr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        const int fork_errno = errno;
        ::close(fds[0]);
        ::close(fds[1]);
        return Status::error(StatusCode::kIo,
                             std::string("fork failed: ") +
                                 std::strerror(fork_errno));
    }
    if (pid == 0) {
        ::close(fds[0]);
        WorkerExitCode code = kWorkerExitInternal;
        try {
            HeartbeatWriter heartbeat;
            heartbeat.attach(fds[1]);
            code = body(heartbeat);
        } catch (const std::exception &error) {
            std::fprintf(stderr, "worker: %s\n", error.what());
        } catch (...) {
            std::fprintf(stderr, "worker: unknown exception\n");
        }
        std::fflush(stderr);
        // Never return into the caller: its stack belongs to the
        // parent's grid, and exit() would run the parent's atexit
        // handlers and static destructors in this copy.
        ::_exit(code);
    }

    ::close(fds[1]);
    childPid = pid;
    heartbeats.attach(fds[0]);
    return Status::ok();
}

bool
WorkerHandle::poll(int *wait_status)
{
    panicIf(wait_status == nullptr, "WorkerHandle::poll needs output");
    if (childPid <= 0)
        return false;
    const pid_t reaped = ::waitpid(childPid, wait_status, WNOHANG);
    if (reaped != childPid)
        return false;
    // Final heartbeat drain: frames written just before death still
    // count as progress for hang accounting.
    (void)heartbeats.poll();
    childPid = -1;
    return true;
}

bool
WorkerHandle::pollHeartbeat()
{
    return heartbeats.poll();
}

void
WorkerHandle::kill9()
{
    if (childPid > 0)
        (void)::kill(childPid, SIGKILL);
}

void
WorkerHandle::reset()
{
    heartbeats.close();
    childPid = -1;
}

} // namespace vpsim
