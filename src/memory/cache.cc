#include "memory/cache.hh"

#include "common/log.hh"

namespace dmt
{

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    DMT_ASSERT(isPowerOfTwo(params.line_bytes), "line size not pow2");
    DMT_ASSERT(params.assoc > 0, "zero associativity");
    DMT_ASSERT(params.size_bytes % (params.line_bytes * params.assoc) == 0,
               "size not divisible by way size");
    num_sets = params.size_bytes / (params.line_bytes * params.assoc);
    DMT_ASSERT(isPowerOfTwo(num_sets), "set count not pow2");
    offset_bits = floorLog2(params.line_bytes);
    index_bits = floorLog2(num_sets);
    lines.resize(static_cast<size_t>(num_sets) * params.assoc);
}

bool
Cache::probe(Addr addr) const
{
    const u32 set = setIndex(addr);
    const u32 tag = tagOf(addr);
    const Line *ways = &lines[static_cast<size_t>(set) * params_.assoc];
    for (u32 w = 0; w < params_.assoc; ++w) {
        if (ways[w].valid && ways[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::reset()
{
    for (auto &line : lines)
        line = Line{};
    access_seq = 0;
    hits_.reset();
    misses_.reset();
}

} // namespace dmt
