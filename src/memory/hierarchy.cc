#include "memory/hierarchy.hh"

namespace dmt
{

MemHierarchy::MemHierarchy(const HierarchyParams &params)
    : l1i_({"l1i", params.l1i_bytes, 2, 32}),
      l1d_({"l1d", 16 * 1024, 2, 32}),
      l2_({"l2", params.l2_bytes, 4, 64})
{
}

void
MemHierarchy::reset()
{
    l1i_.reset();
    l1d_.reset();
    l2_.reset();
}

} // namespace dmt
