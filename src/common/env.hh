/**
 * @file
 * Strict numeric parsing for knob values and spec fields.  The raw
 * strtoull/atoi idiom silently accepts trailing garbage ("60k" parses
 * as 60) and wraps on overflow; the environment edge (cli/env.hh), the
 * sample-spec parser and the workload-generator spec parser funnel
 * through these helpers, which reject both.
 */

#ifndef DMT_COMMON_ENV_HH
#define DMT_COMMON_ENV_HH

#include <string_view>

#include "common/types.hh"

namespace dmt
{

/**
 * Strict unsigned parse: the entire string must be a decimal u64
 * (surrounding whitespace tolerated, no sign, no suffix).
 * @retval true on success, writing the value through @p out.
 */
bool parseU64(std::string_view s, u64 *out);

/**
 * Strict floating-point parse: the entire string must be a finite
 * decimal number (surrounding whitespace tolerated).
 * @retval true on success, writing the value through @p out.
 */
bool parseF64(std::string_view s, double *out);

} // namespace dmt

#endif // DMT_COMMON_ENV_HH
