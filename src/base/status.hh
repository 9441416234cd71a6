/**
 * @file
 * Recoverable-error reporting: the Status type.
 *
 * The library treats malformed data and perturbed signals as *expected
 * operating conditions* — the paper's attack works because of noise, and
 * a production deployment sees corrupt cache entries, truncated model
 * checkpoints and degraded collection runs as a matter of course. Entry
 * points that can fail on runtime data therefore return Status (or
 * Result<T>, see base/result.hh) instead of calling fatal().
 *
 * fatal()/panic() remain for what they were always meant for: CLI
 * misuse at the binary level (via Result::valueOrDie()) and internal
 * invariant violations.
 */

#ifndef BF_BASE_STATUS_HH
#define BF_BASE_STATUS_HH

#include <string>
#include <utility>

namespace bigfish {

/** Coarse classification of a recoverable error. */
enum class ErrorCode
{
    Ok = 0,
    InvalidArgument, ///< A caller-supplied parameter is unusable.
    ParseError,      ///< Input data does not match the expected format.
    OutOfRange,      ///< A parsed value lies outside its legal range.
    IoError,         ///< The underlying stream/file operation failed.
    ShapeMismatch,   ///< Tensor/feature dimensions disagree.
    DataError,       ///< Structurally valid data that is unusable.
    Exhausted,       ///< Nothing usable survived a degraded operation.
};

/** Short stable name of an error code ("parse-error", "io-error", ...). */
constexpr const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok:
        return "ok";
      case ErrorCode::InvalidArgument:
        return "invalid-argument";
      case ErrorCode::ParseError:
        return "parse-error";
      case ErrorCode::OutOfRange:
        return "out-of-range";
      case ErrorCode::IoError:
        return "io-error";
      case ErrorCode::ShapeMismatch:
        return "shape-mismatch";
      case ErrorCode::DataError:
        return "data-error";
      case ErrorCode::Exhausted:
        return "exhausted";
    }
    return "unknown";
}

/**
 * The outcome of an operation that can fail recoverably: an error code
 * plus a human-readable message. A default-constructed Status is OK.
 */
class [[nodiscard]] Status
{
  public:
    /** An OK status. */
    Status() = default;

    /** An error status; @p code must not be ErrorCode::Ok. */
    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    /** Named constructor for the OK status. */
    [[nodiscard]] static Status ok() { return Status(); }

    /** True when the operation succeeded. */
    bool isOk() const { return code_ == ErrorCode::Ok; }

    /** The error classification. */
    ErrorCode code() const { return code_; }

    /** The human-readable error message (empty when OK). */
    const std::string &message() const { return message_; }

    /** "ok" or "<code-name>: <message>", for logs and fatal reports. */
    std::string
    toString() const
    {
        if (isOk())
            return "ok";
        return std::string(errorCodeName(code_)) + ": " + message_;
    }

    /** Statuses compare equal on code (messages are for humans). */
    friend bool
    operator==(const Status &a, const Status &b)
    {
        return a.code_ == b.code_;
    }

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/** Convenience constructors mirroring the ErrorCode values. */
[[nodiscard]] inline Status
invalidArgumentError(std::string message)
{
    return Status(ErrorCode::InvalidArgument, std::move(message));
}

[[nodiscard]] inline Status
parseError(std::string message)
{
    return Status(ErrorCode::ParseError, std::move(message));
}

[[nodiscard]] inline Status
outOfRangeError(std::string message)
{
    return Status(ErrorCode::OutOfRange, std::move(message));
}

[[nodiscard]] inline Status
ioError(std::string message)
{
    return Status(ErrorCode::IoError, std::move(message));
}

[[nodiscard]] inline Status
shapeMismatchError(std::string message)
{
    return Status(ErrorCode::ShapeMismatch, std::move(message));
}

[[nodiscard]] inline Status
dataError(std::string message)
{
    return Status(ErrorCode::DataError, std::move(message));
}

[[nodiscard]] inline Status
exhaustedError(std::string message)
{
    return Status(ErrorCode::Exhausted, std::move(message));
}

/** Early-returns from the enclosing function on error. */
#define BF_RETURN_IF_ERROR(expr)                                            \
    do {                                                                    \
        ::bigfish::Status bf_status_ = (expr);                              \
        if (!bf_status_.isOk())                                             \
            return bf_status_;                                              \
    } while (false)

} // namespace bigfish

#endif // BF_BASE_STATUS_HH
