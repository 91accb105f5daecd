#include "common/env.hh"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/strutil.hh"

namespace dmt
{

bool
parseU64(std::string_view s, u64 *out)
{
    s = trim(s);
    if (s.empty())
        return false;
    u64 v = 0;
    const char *first = s.data();
    const char *last = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(first, last, v, 10);
    if (ec != std::errc{} || ptr != last)
        return false;
    *out = v;
    return true;
}

bool
parseF64(std::string_view s, double *out)
{
    s = trim(s);
    if (s.empty())
        return false;
    // strtod needs NUL termination; the knob strings are tiny.
    const std::string z(s);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(z.c_str(), &end);
    if (end != z.c_str() + z.size() || errno == ERANGE
        || !std::isfinite(v)) {
        return false;
    }
    *out = v;
    return true;
}

} // namespace dmt
