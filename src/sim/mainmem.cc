#include "sim/mainmem.hh"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "casm/program.hh"
#include "common/log.hh"

namespace dmt
{

void
MainMemory::clear()
{
    pages.clear();
}

void
MainMemory::loadProgram(const Program &prog)
{
    // One page at a time; the segment starts on a page boundary.
    static_assert(Program::kDataBase % kPageSize == 0);
    const size_t size = prog.data.size();
    for (size_t done = 0; done < size; done += kPageSize) {
        const Addr addr = Program::kDataBase + static_cast<Addr>(done);
        std::memcpy(touchPage(addr).data(), prog.data.data() + done,
                    std::min<size_t>(size - done, kPageSize));
    }
}

bool
MainMemory::operator==(const MainMemory &other) const
{
    if (pages.size() != other.pages.size())
        return false;
    for (const auto &[idx, page] : pages) {
        const auto it = other.pages.find(idx);
        if (it == other.pages.end())
            return false;
        if (page != it->second
            && std::memcmp(page->data(), it->second->data(), kPageSize)
                != 0) {
            return false;
        }
    }
    return true;
}

const u8 *
MainMemory::pageData(Addr addr) const
{
    const Page *page = findPage(addr);
    return page ? page->data() : nullptr;
}

u8 *
MainMemory::pageDataWritable(Addr addr)
{
    return touchPage(addr).data();
}

const MainMemory::Page *
MainMemory::findPage(Addr addr) const
{
    auto it = pages.find(addr >> kPageBits);
    return it == pages.end() ? nullptr : it->second.get();
}

MainMemory::Page &
MainMemory::touchPage(Addr addr)
{
    std::shared_ptr<Page> &slot = pages[addr >> kPageBits];
    if (!slot) {
        slot = std::make_shared<Page>(); // value-initialized: zeroes
    } else if (slot.use_count() > 1) {
        slot = std::make_shared<Page>(*slot);
    } else {
        // Sole owner.  use_count() is a relaxed load; the fence pairs
        // with the releasing decrement of an owner that dropped the
        // page on another thread, so its reads happen before our
        // writes.
        std::atomic_thread_fence(std::memory_order_acquire);
    }
    return *slot;
}

namespace
{

/** @p addr masked down to a @p bytes boundary; panics unless 1, 2, 4. */
Addr
alignedFor(Addr addr, int bytes)
{
    if (bytes != 1 && bytes != 2 && bytes != 4)
        panic("bad access size %d", bytes);
    return addr & ~static_cast<Addr>(bytes - 1);
}

} // namespace

u32
MainMemory::read(Addr addr, int bytes, bool sign_extend) const
{
    addr = alignedFor(addr, bytes);
    const Page *page = findPage(addr);
    if (!page)
        return 0;
    // Assembled with shifts, so the result is little-endian whatever
    // the host's byte order.
    const u8 *p = page->data() + (addr & (kPageSize - 1));
    switch (bytes) {
      case 1:
        return sign_extend
            ? static_cast<u32>(static_cast<i32>(static_cast<i8>(p[0])))
            : p[0];
      case 2: {
          const u16 v = static_cast<u16>(p[0] | (p[1] << 8));
          return sign_extend
              ? static_cast<u32>(static_cast<i32>(static_cast<i16>(v)))
              : v;
      }
      default:
        return p[0] | (p[1] << 8) | (p[2] << 16)
            | (static_cast<u32>(p[3]) << 24);
    }
}

void
MainMemory::write(Addr addr, int bytes, u32 value)
{
    addr = alignedFor(addr, bytes);
    u8 *p = touchPage(addr).data() + (addr & (kPageSize - 1));
    for (int i = 0; i < bytes; ++i)
        p[i] = static_cast<u8>(value >> (8 * i));
}

} // namespace dmt
