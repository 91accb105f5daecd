#include "memory/hierarchy.hh"

namespace dmt
{

MemHierarchy::MemHierarchy(const HierarchyParams &params)
    : l1i_(params.l1i), l1d_(params.l1d), l2_(params.l2)
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
