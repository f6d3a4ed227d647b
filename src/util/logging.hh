/**
 * @file
 * Error-reporting helpers in the gem5 style: SURF_PANIC / SURF_ASSERT
 * for internal invariant violations (bugs), warn()/inform() for status
 * messages that do not stop execution. User errors are not reported
 * here: they come back to the caller as a Status (util/status.hh), and
 * the library never ends the process for them.
 */

#ifndef SURF_UTIL_LOGGING_HH
#define SURF_UTIL_LOGGING_HH

#include <sstream>
#include <string>

namespace surf {

/** Print "panic: <msg>" with location and abort(). Use for internal bugs. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/** Print "warn: <msg>" to stderr. */
void warn(const std::string &msg);

/** Print "info: <msg>" to stderr. */
void inform(const std::string &msg);

namespace detail {

/** Fold a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

} // namespace surf

#define SURF_PANIC(...) \
    ::surf::panicImpl(__FILE__, __LINE__, ::surf::detail::concat(__VA_ARGS__))

/** Assert a condition that should hold regardless of user input. */
#define SURF_ASSERT(cond, ...)                                           \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::surf::panicImpl(__FILE__, __LINE__,                         \
                ::surf::detail::concat("assertion failed: " #cond " ",    \
                                       ##__VA_ARGS__));                   \
        }                                                                 \
    } while (0)

#endif // SURF_UTIL_LOGGING_HH
