#include "common/log.hh"

#include <cstdio>

namespace dmt
{

namespace
{

void
vreport(const char *tag, const char *fmt, va_list ap)
{
    std::fflush(stdout);
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
}

std::string
vformat(const char *fmt, va_list ap)
{
    va_list copy;
    va_copy(copy, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n <= 0)
        return std::string();
    std::string out(static_cast<size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fflush(stdout);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::fflush(stderr);
    throw SimError(std::move(msg));
}

void
panicWithDetails(std::string details_json, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fflush(stdout);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::fflush(stderr);
    throw SimError(std::move(msg), std::move(details_json));
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap);
    va_end(ap);
}

void
panicAssert(const char *cond, const char *file, int line, const char *fmt,
            ...)
{
    std::string msg = "assertion '" + std::string(cond) + "' failed at "
        + file + ":" + std::to_string(line);
    if (fmt && fmt[0] != '\0') {
        va_list ap;
        va_start(ap, fmt);
        msg += ": " + vformat(fmt, ap);
        va_end(ap);
    }
    std::fflush(stdout);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::fflush(stderr);
    throw SimError(std::move(msg));
}

} // namespace dmt
