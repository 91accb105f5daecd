#include "uarch/physregs.hh"

#include "common/log.hh"

namespace dmt
{

PhysRegFile::PhysRegFile(int count)
{
    DMT_ASSERT(count > 0, "empty register file");
    values.assign(static_cast<size_t>(count), 0);
    ready_.assign(static_cast<size_t>(count), 0);
    alloc_.assign(static_cast<size_t>(count), 0);
    free_list.reserve(static_cast<size_t>(count));
    for (int i = count - 1; i >= 0; --i)
        free_list.push_back(i);
}

int
PhysRegFile::numAllocated() const
{
    int n = 0;
    for (u8 a : alloc_)
        n += a ? 1 : 0;
    return n;
}

} // namespace dmt
