#include "common/cancellation.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace vpsim
{

namespace
{

thread_local CancellationToken *t_currentToken = nullptr;

void
makeNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

void
CancellationToken::forwardBeat(std::uint64_t progress_units)
{
    if (progress_units == lastForwarded)
        return;
    const auto now = std::chrono::steady_clock::now();
    if (now - lastForwardTime < forwardInterval)
        return;
    lastForwarded = progress_units;
    lastForwardTime = now;
    forwardWriter->beat(progress_units);
}

void
HeartbeatWriter::attach(int fd)
{
    close();
    pipeFd = fd;
    if (pipeFd >= 0)
        makeNonBlocking(pipeFd);
}

void
HeartbeatWriter::beat(std::uint64_t progress_units)
{
    if (pipeFd < 0)
        return;
    unsigned char frame[8];
    for (int i = 0; i < 8; ++i)
        frame[i] = static_cast<unsigned char>(
            (progress_units >> (8 * i)) & 0xff);
    // One 8-byte write is atomic on a pipe (PIPE_BUF >> 8), so frames
    // never interleave. EAGAIN (pipe full: the parent is behind) and
    // EPIPE (parent gone) both drop the frame on purpose.
    for (;;) {
        const ssize_t wrote = ::write(pipeFd, frame, sizeof(frame));
        if (wrote >= 0 || errno != EINTR)
            return;
    }
}

void
HeartbeatWriter::close()
{
    if (pipeFd >= 0)
        ::close(pipeFd);
    pipeFd = -1;
}

void
HeartbeatReader::attach(int fd)
{
    close();
    pipeFd = fd;
    latestProgress = 0;
    partialBytes = 0;
    if (pipeFd >= 0)
        makeNonBlocking(pipeFd);
}

bool
HeartbeatReader::poll()
{
    if (pipeFd < 0)
        return false;
    bool saw_frame = false;
    unsigned char buffer[256];
    for (;;) {
        const ssize_t got = ::read(pipeFd, buffer, sizeof(buffer));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            break; // EAGAIN: drained. Other errors: treat as drained.
        }
        if (got == 0)
            break; // Writer closed; whatever arrived already counts.
        for (ssize_t i = 0; i < got; ++i) {
            partial[partialBytes++] = buffer[i];
            if (partialBytes < sizeof(partial))
                continue;
            std::uint64_t value = 0;
            for (int b = 7; b >= 0; --b)
                value = (value << 8) | partial[b];
            latestProgress = value;
            partialBytes = 0;
            saw_frame = true;
        }
        if (static_cast<std::size_t>(got) < sizeof(buffer))
            break;
    }
    return saw_frame;
}

void
HeartbeatReader::close()
{
    if (pipeFd >= 0)
        ::close(pipeFd);
    pipeFd = -1;
}

CancellationToken *
currentCancellationToken()
{
    return t_currentToken;
}

void
setCurrentCancellationToken(CancellationToken *token)
{
    t_currentToken = token;
}

} // namespace vpsim
