#include "common/io.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/logging.hpp"

namespace vpsim
{
namespace io
{

namespace
{

FaultKind
faultKindFromString(const std::string &text)
{
    if (text == "eio") return FaultKind::Eio;
    if (text == "enospc") return FaultKind::Enospc;
    if (text == "torn") return FaultKind::Torn;
    if (text == "sigint") return FaultKind::Sigint;
    if (text == "throw") return FaultKind::Throw;
    if (text == "kill9") return FaultKind::Kill9;
    if (text == "hang") return FaultKind::Hang;
    fatal("unknown fault kind '" + text +
          "' (expected eio/enospc/torn/sigint/throw/kill9/hang)");
}

bool
isKnownOp(const std::string &op)
{
    return op == "open" || op == "read" || op == "write" ||
           op == "flush" || op == "rename" || op == "remove" ||
           op == "job" || op == "worker";
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::string current;
    for (const char ch : text) {
        if (ch == sep) {
            parts.push_back(current);
            current.clear();
        } else {
            current.push_back(ch);
        }
    }
    parts.push_back(current);
    return parts;
}

/** The errno an injected fault simulates, as message detail. */
std::string
injectedErrnoDetail(FaultKind kind)
{
    const int err = kind == FaultKind::Enospc ? ENOSPC : EIO;
    return std::string(std::strerror(err)) + " (injected)";
}

std::string
errnoDetail()
{
    return std::strerror(errno);
}

/**
 * Apply a fault that is not an error return: Sigint raises and lets
 * the operation proceed; Throw throws "injected fault: <op> <path>".
 * Returns the remaining kind. This runs on every read and write, so
 * the message is built only when it is thrown.
 */
FaultKind
applyControlFaults(FaultKind kind, const char *op, const std::string &path)
{
    if (kind == FaultKind::Sigint) {
        std::raise(SIGINT);
        return FaultKind::None;
    }
    if (kind == FaultKind::Kill9) {
        std::raise(SIGKILL);
        return FaultKind::None;
    }
    if (kind == FaultKind::Throw)
        throw std::runtime_error(std::string("injected fault: ") + op +
                                 " " + path);
    return kind;
}

/** Count one read of @p path; the error an injected fault makes of it. */
Status
injectedReadFault(const std::string &path)
{
    const FaultKind fault = applyControlFaults(
        faultInjector().next("read"), "read", path);
    if (fault == FaultKind::None)
        return Status::ok();
    return Status::error(StatusCode::kIo, "read error on " + path + ": " +
                                              injectedErrnoDetail(fault));
}

} // namespace

void
FaultInjector::configure(const std::string &spec)
{
    MutexLock lock(mutex);
    clauses.clear();
    counts.clear();
    isActive.store(false, std::memory_order_relaxed);
    if (spec.empty())
        return;
    bool armed = false;
    for (const std::string &clause_text : splitOn(spec, ',')) {
        const std::vector<std::string> fields = splitOn(clause_text, ':');
        if (fields.size() == 2 && fields[0] == "seed") {
            rng = Rng(std::strtoull(fields[1].c_str(), nullptr, 0));
            continue;
        }
        fatalIf(fields.size() != 3,
                "bad --fault-inject clause '" + clause_text +
                    "' (expected op:n:kind or seed:n)");
        fatalIf(!isKnownOp(fields[0]),
                "unknown fault-inject op '" + fields[0] +
                    "' (expected open/read/write/flush/rename/remove/"
                    "job/worker)");
        Clause clause;
        clause.op = fields[0];
        char *end = nullptr;
        clause.index = std::strtoull(fields[1].c_str(), &end, 0);
        fatalIf(end == fields[1].c_str() || *end != '\0' ||
                    clause.index == 0,
                "bad fault-inject occurrence '" + fields[1] +
                    "' in clause '" + clause_text + "' (1-based count)");
        clause.kind = faultKindFromString(fields[2]);
        clauses.push_back(clause);
        armed = true;
    }
    isActive.store(armed, std::memory_order_relaxed);
}

FaultKind
FaultInjector::next(const char *op)
{
    if (!active())
        return FaultKind::None;
    MutexLock lock(mutex);
    const std::uint64_t occurrence = ++counts[op];
    for (Clause &clause : clauses) {
        if (clause.fired || clause.op != op ||
            clause.index != occurrence) {
            continue;
        }
        clause.fired = true;
        return clause.kind;
    }
    return FaultKind::None;
}

std::uint64_t
FaultInjector::tornCut(std::uint64_t size)
{
    if (size == 0)
        return 0;
    MutexLock lock(mutex);
    return rng.nextBelow(size);
}

FaultInjector &
faultInjector()
{
    static FaultInjector injector;
    return injector;
}

void
configureFaultInjection(const std::string &spec)
{
    faultInjector().configure(spec);
}

Status
File::openForRead(const std::string &file_path)
{
    panicIf(isOpen(), "io::File reopened while open: " + file_path);
    const FaultKind fault = applyControlFaults(
        faultInjector().next("open"), "open", file_path);
    if (fault != FaultKind::None) {
        return Status::error(StatusCode::kIo,
                             "cannot open " + file_path + ": " +
                                 injectedErrnoDetail(fault));
    }
    file = std::fopen(file_path.c_str(), "rb");
    if (!file) {
        return Status::error(StatusCode::kIo,
                             "cannot open " + file_path +
                                 " for reading: " + errnoDetail());
    }
    filePath = file_path;
    return Status::ok();
}

Status
File::openForWrite(const std::string &file_path)
{
    panicIf(isOpen(), "io::File reopened while open: " + file_path);
    const FaultKind fault = applyControlFaults(
        faultInjector().next("open"), "open", file_path);
    if (fault != FaultKind::None) {
        return Status::error(StatusCode::kIo,
                             "cannot open " + file_path + ": " +
                                 injectedErrnoDetail(fault));
    }
    file = std::fopen(file_path.c_str(), "wb");
    if (!file) {
        return Status::error(StatusCode::kIo,
                             "cannot open " + file_path +
                                 " for writing: " + errnoDetail());
    }
    filePath = file_path;
    return Status::ok();
}

Status
File::readExact(void *buffer, std::size_t size)
{
    panicIf(!isOpen(), "read on closed io::File");
    if (Status fault = injectedReadFault(filePath); !fault.isOk())
        return fault;
    const std::size_t got = std::fread(buffer, 1, size, file);
    if (got == size)
        return Status::ok();
    if (std::feof(file)) {
        return Status::error(StatusCode::kCorrupt,
                             "unexpected end of file in " + filePath +
                                 " (truncated?)");
    }
    return Status::error(StatusCode::kIo, "read error on " + filePath +
                                              ": " + errnoDetail());
}

Status
File::readExactAt(std::uint64_t offset, void *buffer, std::size_t size)
{
    panicIf(!isOpen(), "read on closed io::File");
    if (Status fault = injectedReadFault(filePath); !fault.isOk())
        return fault;
    auto *bytes = static_cast<unsigned char *>(buffer);
    std::size_t have = 0;
    while (have < size) {
        const ssize_t got =
            ::pread(::fileno(file), bytes + have, size - have,
                    static_cast<off_t>(offset + have));
        if (got > 0) {
            have += static_cast<std::size_t>(got);
        } else if (got == 0) {
            return Status::error(StatusCode::kCorrupt,
                                 "unexpected end of file in " + filePath +
                                     " (truncated?)");
        } else if (errno != EINTR) {
            return Status::error(StatusCode::kIo, "read error on " +
                                                      filePath + ": " +
                                                      errnoDetail());
        }
    }
    return Status::ok();
}

Status
File::sizeBytes(std::uint64_t *bytes)
{
    panicIf(!isOpen(), "size of closed io::File");
    struct stat info = {};
    if (::fstat(::fileno(file), &info) != 0) {
        return Status::error(StatusCode::kIo, "cannot stat " + filePath +
                                                  ": " + errnoDetail());
    }
    *bytes = static_cast<std::uint64_t>(info.st_size);
    return Status::ok();
}

Status
File::writeAll(const void *buffer, std::size_t size)
{
    panicIf(!isOpen(), "write on closed io::File");
    const FaultKind fault = applyControlFaults(
        faultInjector().next("write"), "write", filePath);
    if (fault == FaultKind::Eio || fault == FaultKind::Enospc) {
        return Status::error(StatusCode::kIo,
                             "write error on " + filePath + ": " +
                                 injectedErrnoDetail(fault));
    }
    std::size_t to_write = size;
    if (fault == FaultKind::Torn) {
        // A torn write loses the tail but reports success — the caller
        // believes the data landed, exactly like a crash mid-write
        // followed by a rename. The checksum footer catches it later.
        to_write = static_cast<std::size_t>(
            faultInjector().tornCut(size));
    }
    const std::size_t put = std::fwrite(buffer, 1, to_write, file);
    if (put != to_write) {
        return Status::error(StatusCode::kIo,
                             "write error on " + filePath + ": " +
                                 errnoDetail());
    }
    return Status::ok();
}

Status
File::flush()
{
    panicIf(!isOpen(), "flush on closed io::File");
    const FaultKind fault = applyControlFaults(
        faultInjector().next("flush"), "flush", filePath);
    if (fault != FaultKind::None) {
        return Status::error(StatusCode::kIo,
                             "flush error on " + filePath + ": " +
                                 injectedErrnoDetail(fault));
    }
    if (std::fflush(file) != 0 || std::ferror(file)) {
        return Status::error(StatusCode::kIo,
                             "I/O error flushing " + filePath + ": " +
                                 errnoDetail());
    }
    return Status::ok();
}

Status
File::sync()
{
    panicIf(!isOpen(), "sync on closed io::File");
    const Status flushed = flush();
    if (!flushed.isOk())
        return flushed;
    if (::fsync(::fileno(file)) != 0) {
        return Status::error(StatusCode::kIo,
                             "I/O error syncing " + filePath + ": " +
                                 errnoDetail());
    }
    return Status::ok();
}

void
File::close()
{
    if (!file)
        return;
    std::fclose(file);
    file = nullptr;
    filePath.clear();
}

Status
removeFile(const std::string &path)
{
    const FaultKind fault = applyControlFaults(
        faultInjector().next("remove"), "remove", path);
    if (fault != FaultKind::None) {
        return Status::error(StatusCode::kIo, "cannot remove " + path +
                                                  ": " +
                                                  injectedErrnoDetail(
                                                      fault));
    }
    if (std::remove(path.c_str()) != 0) {
        return Status::error(StatusCode::kIo, "cannot remove " + path +
                                                  ": " + errnoDetail());
    }
    return Status::ok();
}

Status
renameFile(const std::string &from, const std::string &to)
{
    const FaultKind fault = applyControlFaults(
        faultInjector().next("rename"), "rename", from);
    if (fault != FaultKind::None) {
        return Status::error(StatusCode::kIo,
                             "cannot rename " + from + " to " + to +
                                 ": " + injectedErrnoDetail(fault));
    }
    if (std::rename(from.c_str(), to.c_str()) != 0) {
        return Status::error(StatusCode::kIo,
                             "cannot rename " + from + " to " + to +
                                 ": " + errnoDetail());
    }
    return Status::ok();
}

} // namespace io
} // namespace vpsim
