/**
 * @file
 * The library's one error path for user errors. A malformed scenario
 * config, a corrupted defect stream, an inconsistent epoch plan or a bad
 * strategy argument comes back to the caller as a diagnosable value; the
 * library never ends the host process for it. SURF_PANIC / SURF_ASSERT
 * (util/logging.hh) remain for genuine invariant violations (bugs).
 *
 * Status is a tiny absl-shaped result type: a code plus a human-readable
 * message. StatusOr<T> carries either a value or a non-OK Status.
 * StatusError wraps a Status in an exception for the layers where
 * threading a return value is impractical (deep inside cache build
 * callbacks, worker-pool tasks); the checked entry points catch it at
 * the boundary and hand the Status back. A caller that prefers an
 * exception unwraps with value() or operator*, which throw StatusError
 * carrying the message when the result is not OK.
 */

#ifndef SURF_UTIL_STATUS_HH
#define SURF_UTIL_STATUS_HH

#include <stdexcept>
#include <string>
#include <utility>

namespace surf {

/** Broad error category (absl-compatible subset). */
enum class StatusCode : uint8_t
{
    kOk = 0,
    kInvalidArgument,    ///< malformed user input (config, plan string)
    kFailedPrecondition, ///< structurally inconsistent state (epoch plan)
    kDataLoss,           ///< truncated / corrupted input stream
    kInternal,           ///< invariant violation surfaced as a value
    kCorruptSnapshot,    ///< persisted state failed validation (torn
                         ///< write, CRC mismatch, version skew, semantic
                         ///< inconsistency) — recover via cold rebuild
    kAborted,            ///< run interrupted before completion (e.g. the
                         ///< fault harness's simulated crash); persisted
                         ///< checkpoints allow a later resume
};

/** Error-or-OK result of a checked operation. */
class Status
{
  public:
    Status() = default; ///< OK
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status okStatus() { return Status(); }
    static Status
    invalidArgument(std::string msg)
    {
        return {StatusCode::kInvalidArgument, std::move(msg)};
    }
    static Status
    failedPrecondition(std::string msg)
    {
        return {StatusCode::kFailedPrecondition, std::move(msg)};
    }
    static Status
    dataLoss(std::string msg)
    {
        return {StatusCode::kDataLoss, std::move(msg)};
    }
    static Status
    internal(std::string msg)
    {
        return {StatusCode::kInternal, std::move(msg)};
    }
    static Status
    corruptSnapshot(std::string msg)
    {
        return {StatusCode::kCorruptSnapshot, std::move(msg)};
    }
    static Status
    aborted(std::string msg)
    {
        return {StatusCode::kAborted, std::move(msg)};
    }

    bool ok() const { return code_ == StatusCode::kOk; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "OK" or "<code>: <message>". */
    std::string
    str() const
    {
        if (ok())
            return "OK";
        return std::string(codeName(code_)) + ": " + message_;
    }

    static const char *
    codeName(StatusCode c)
    {
        switch (c) {
          case StatusCode::kOk:
            return "OK";
          case StatusCode::kInvalidArgument:
            return "INVALID_ARGUMENT";
          case StatusCode::kFailedPrecondition:
            return "FAILED_PRECONDITION";
          case StatusCode::kDataLoss:
            return "DATA_LOSS";
          case StatusCode::kCorruptSnapshot:
            return "CORRUPT_SNAPSHOT";
          case StatusCode::kAborted:
            return "ABORTED";
          case StatusCode::kInternal:
          default:
            return "INTERNAL";
        }
    }

  private:
    StatusCode code_ = StatusCode::kOk;
    std::string message_;
};

/** Exception carrier for Status across callback / worker boundaries. */
class StatusError : public std::runtime_error
{
  public:
    explicit StatusError(Status status)
        : std::runtime_error(status.str()), status_(std::move(status))
    {
    }
    const Status &status() const { return status_; }

  private:
    Status status_;
};

/** Value-or-Status. value() on a non-OK result throws StatusError. */
template <typename T>
class StatusOr
{
  public:
    StatusOr(Status status) : status_(std::move(status)) {}
    StatusOr(T value) : value_(std::move(value)), has_value_(true) {}

    bool ok() const { return has_value_; }
    const Status &status() const { return status_; }

    T &
    value() &
    {
        if (!has_value_)
            throw StatusError(status_);
        return value_;
    }
    const T &
    value() const &
    {
        if (!has_value_)
            throw StatusError(status_);
        return value_;
    }
    /** Unwrapping a temporary moves the value out, so
     *  `T x = f().value()` does not copy it. */
    T
    value() &&
    {
        if (!has_value_)
            throw StatusError(status_);
        return std::move(value_);
    }
    T &operator*() & { return value(); }
    const T &operator*() const & { return value(); }
    T operator*() && { return std::move(*this).value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    Status status_;
    T value_{};
    bool has_value_ = false;
};

} // namespace surf

#endif // SURF_UTIL_STATUS_HH
