/**
 * @file
 * Small bit-manipulation helpers shared by the ISA encoder and the
 * predictor index hashes.
 */

#ifndef DMT_COMMON_BITUTILS_HH
#define DMT_COMMON_BITUTILS_HH

#include "common/types.hh"

namespace dmt
{

/** Extract bits [hi:lo] (inclusive) of @p value. */
constexpr u32
bits(u32 value, int hi, int lo)
{
    const u32 width = static_cast<u32>(hi - lo + 1);
    const u32 mask = width >= 32 ? ~0u : ((1u << width) - 1u);
    return (value >> lo) & mask;
}

/** Insert @p field into bits [hi:lo] of a zero background. */
constexpr u32
insertBits(u32 field, int hi, int lo)
{
    const u32 width = static_cast<u32>(hi - lo + 1);
    const u32 mask = width >= 32 ? ~0u : ((1u << width) - 1u);
    return (field & mask) << lo;
}

/** Sign-extend the low @p width bits of @p value to 32 bits. */
constexpr i32
signExtend(u32 value, int width)
{
    const u32 shift = static_cast<u32>(32 - width);
    return static_cast<i32>(value << shift) >> shift;
}

/** @return true when @p value is a power of two (and nonzero). */
constexpr bool
isPowerOfTwo(u64 value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** log2 of a power of two. */
constexpr int
floorLog2(u64 value)
{
    int result = 0;
    while (value > 1) {
        value >>= 1;
        ++result;
    }
    return result;
}

} // namespace dmt

#endif // DMT_COMMON_BITUTILS_HH
