/**
 * @file
 * Flat byte-addressable main memory with sparse page allocation.
 * Little-endian, 32-bit address space.  Accesses are size-aligned by
 * masking low address bits (the ISA has no unaligned accesses; masking
 * keeps speculative wild addresses deterministic and harmless), so an
 * access never straddles a page and costs one page lookup.
 *
 * Pages are copy-on-write: a copy of a MainMemory shares every page
 * with the original, and whichever side writes a shared page first
 * clones it.  Checkpoint capture, restore, engine resume and the
 * golden checker's fork therefore cost one pointer copy per page.
 */

#ifndef DMT_SIM_MAINMEM_HH
#define DMT_SIM_MAINMEM_HH

#include <array>
#include <memory>
#include <unordered_map>

#include "common/types.hh"

namespace dmt
{

class Program;

/** Sparse simulated memory. */
class MainMemory
{
  public:
    static constexpr u32 kPageBits = 16;
    static constexpr u32 kPageSize = 1u << kPageBits;

    MainMemory() = default;

    /** A copy shares every page; see the file comment. */
    MainMemory(const MainMemory &) = default;
    MainMemory &operator=(const MainMemory &) = default;
    MainMemory(MainMemory &&) = default;
    MainMemory &operator=(MainMemory &&) = default;

    /** Zero everything. */
    void clear();

    /** Initialize the data segment from @p prog. */
    void loadProgram(const Program &prog);

    /**
     * Read 1, 2 or 4 bytes at @p addr masked down to that size, with
     * optional sign extension.  One page lookup; an absent page reads
     * 0 and stays absent.  Panics on any other size.
     */
    u32 read(Addr addr, int bytes, bool sign_extend) const;

    /**
     * Write the low 1, 2 or 4 bytes of @p value at @p addr masked down
     * to that size.  One page lookup; allocates the page if absent and
     * clones it if shared.  Panics on any other size.
     */
    void write(Addr addr, int bytes, u32 value);

    u8 read8(Addr a) const { return static_cast<u8>(read(a, 1, false)); }
    u16 read16(Addr a) const { return static_cast<u16>(read(a, 2, false)); }
    u32 read32(Addr a) const { return read(a, 4, false); }

    void write8(Addr a, u8 value) { write(a, 1, value); }
    void write16(Addr a, u16 value) { write(a, 2, value); }
    void write32(Addr a, u32 value) { write(a, 4, value); }

    /** Number of pages currently allocated (for tests). */
    size_t numPages() const { return pages.size(); }

    /**
     * Raw bytes of the page containing @p addr, or nullptr when the
     * page is absent (absent pages read as zero and must stay
     * unallocated).  Pages are heap blocks, so map rehashes don't move
     * them, but a write to a page this memory shares moves the page to
     * a private clone, and the pointer then names the old block.
     * Fast-path hook for TranslatedCore's page TLBs.
     */
    const u8 *pageData(Addr addr) const;

    /**
     * Like pageData() but allocating, and cloning a shared page first:
     * never nullptr, and this memory is the page's only owner until it
     * is next copied.
     */
    u8 *pageDataWritable(Addr addr);

    /**
     * Sparse-page-exact equality: same allocated page set with
     * byte-identical contents.  An allocated all-zero page and an
     * absent page compare *unequal* — a checkpoint must carry the
     * sparse structure itself, not just the values it implies.  A
     * page both sides share compares equal without a byte compare.
     */
    bool operator==(const MainMemory &other) const;

  private:
    using Page = std::array<u8, kPageSize>;

    const Page *findPage(Addr addr) const;
    /** The page at @p addr, allocated if absent, cloned if shared. */
    Page &touchPage(Addr addr);

    /** Shared pages are immutable: only a sole owner writes one. */
    std::unordered_map<u32, std::shared_ptr<Page>> pages;
};

} // namespace dmt

#endif // DMT_SIM_MAINMEM_HH
