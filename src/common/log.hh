/**
 * @file
 * Error/status reporting in the gem5 tradition: panic() for internal
 * simulator bugs, fatal() for user/configuration errors (clean exit),
 * warn()/inform() for non-fatal diagnostics.
 *
 * panic() (and DMT_ASSERT) throws SimError rather than aborting, so
 * harnesses that sweep many configurations can catch one wedged or
 * miscomputing run, log it, and keep going.  Only main()-level entry
 * points translate an uncaught SimError into a process exit.
 */

#ifndef DMT_COMMON_LOG_HH
#define DMT_COMMON_LOG_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

namespace dmt
{

/** Severity levels accepted by the message sink. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

/**
 * An unrecoverable internal simulator error (a bug or a tripped
 * invariant), thrown by panic() / DMT_ASSERT.  Besides the human
 * message it can carry a machine-readable JSON post-mortem snapshot of
 * the engine state at the point of failure (see src/fault/postmortem).
 */
class SimError : public std::exception
{
  public:
    explicit SimError(std::string message, std::string details_json = "")
        : msg(std::move(message)), details(std::move(details_json))
    {
    }

    const char *what() const noexcept override { return msg.c_str(); }

    /** The one-line panic message. */
    const std::string &message() const { return msg; }

    /** JSON post-mortem document; empty when none was attached. */
    const std::string &detailsJson() const { return details; }

    bool hasDetails() const { return !details.empty(); }

  private:
    std::string msg;
    std::string details;
};

/**
 * Report an unrecoverable internal error (a simulator bug) and throw
 * SimError.  Never returns normally.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** panic() with a machine-readable post-mortem attached. */
[[noreturn]] void panicWithDetails(std::string details_json,
                                   const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/**
 * Report an unrecoverable user error (bad configuration, bad input) and
 * exit with status 1. Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious but survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Implementation helper for DMT_ASSERT; never call directly. */
[[noreturn]] void panicAssert(const char *cond, const char *file, int line,
                              const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/**
 * panic() unless @p cond holds.  Used for internal invariants that are
 * cheap enough to keep on in release builds.
 */
#define DMT_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::dmt::panicAssert(#cond, __FILE__, __LINE__, "" __VA_ARGS__);  \
        }                                                                   \
    } while (0)

} // namespace dmt

#endif // DMT_COMMON_LOG_HH
