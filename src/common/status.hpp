/**
 * @file
 * Recoverable-error reporting for library code.
 *
 * fatal() and panic() (logging.hpp) terminate the process, which is right
 * for bench mains but wrong for layers whose callers can recover — a
 * corrupt trace-cache entry should be recaptured, not kill an hour-long
 * sweep. Such functions return a Status instead; the caller decides
 * whether to retry, warn, or escalate to fatal().
 *
 * Every error carries a StatusCode so callers can branch on the *class*
 * of failure without parsing message text: transient I/O errors are
 * retried, corrupt data is quarantined and regenerated, cancellation
 * unwinds quietly.
 */

#ifndef VPSIM_COMMON_STATUS_HPP
#define VPSIM_COMMON_STATUS_HPP

#include <memory>
#include <string>
#include <utility>

namespace vpsim
{

/** Failure taxonomy: what kind of error, hence what recovery applies. */
enum class StatusCode
{
    kOk,       ///< No error.
    kIo,       ///< I/O failure (possibly transient: retry may succeed).
    kCorrupt,  ///< Data failed validation (checksum, magic, truncation).
    kCanceled, ///< Operation abandoned (signal, shutdown).
    kTimeout,  ///< Operation exceeded its deadline.
    kInternal, ///< Simulator invariant violated (model bug, not input).
};

/** Human-readable name of @p code ("ok", "io", "corrupt", ...). */
const char *statusCodeName(StatusCode code);

/**
 * Success, or a coded error with a human-readable message.
 *
 * [[nodiscard]] at class level: every function returning a Status by
 * value flags callers that drop it on the floor. A dropped Status is a
 * swallowed failure — in a parallel sweep that means a poisoned cell
 * published as a real number. Intentional discards must write
 * `(void)call();` with a one-line justification. The build turns the
 * warning into an error (-Werror=unused-result, top-level
 * CMakeLists.txt).
 */
class [[nodiscard]] Status
{
  public:
    /** Success value. */
    static Status ok() { return Status(); }

    /**
     * Failure with @p message (should name the offending file/input).
     * Defaults to kIo, the most common recoverable class.
     */
    static Status error(std::string message)
    {
        return error(StatusCode::kIo, std::move(message));
    }

    /** Failure of class @p code with @p message. */
    static Status error(StatusCode code, std::string message)
    {
        Status status;
        status.errorCode = code;
        status.text = std::move(message);
        return status;
    }

    /**
     * Failure of class @p code that was triggered by @p cause.
     *
     * The cause chain is preserved in full: the composed message reads
     * "<message>: [<cause-code>] <cause-message>" recursively down to
     * the root cause, and cause() exposes the wrapped Status so callers
     * can still branch on the original failure class (a kInternal
     * invariant failure wrapping a kCorrupt trace must not hide that
     * the data, not the model, was bad).
     */
    static Status wrap(StatusCode code, std::string message,
                       const Status &cause)
    {
        if (cause.isOk())
            return error(code, std::move(message));
        Status status = error(code, message + ": [" +
                                        statusCodeName(cause.code()) +
                                        "] " + cause.message());
        status.wrapped = std::make_shared<Status>(cause);
        return status;
    }

    bool isOk() const { return errorCode == StatusCode::kOk; }

    /** The failure class; kOk for ok(). */
    StatusCode code() const { return errorCode; }

    /** The error message (with any cause chain); empty for ok(). */
    const std::string &message() const { return text; }

    /** The wrapped cause, or nullptr when this is the root failure. */
    const Status *cause() const { return wrapped.get(); }

    /** The innermost failure class of the cause chain. */
    StatusCode rootCause() const
    {
        const Status *status = this;
        while (status->wrapped)
            status = status->wrapped.get();
        return status->errorCode;
    }

  private:
    Status() = default;

    StatusCode errorCode = StatusCode::kOk;
    std::string text;
    /** Immutable cause; shared so Status stays cheaply copyable. */
    std::shared_ptr<const Status> wrapped;
};

inline const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::kOk: return "ok";
      case StatusCode::kIo: return "io";
      case StatusCode::kCorrupt: return "corrupt";
      case StatusCode::kCanceled: return "canceled";
      case StatusCode::kTimeout: return "timeout";
      case StatusCode::kInternal: return "internal";
    }
    return "unknown";
}

} // namespace vpsim

#endif // VPSIM_COMMON_STATUS_HPP
