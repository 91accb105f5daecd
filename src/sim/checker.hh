/**
 * @file
 * Golden checker: an independent functional execution advanced in
 * lock-step with the timing simulator's final retirement stream.  Any
 * divergence in control flow, register results, memory effects or
 * program output is a timing-simulator bug and is reported immediately.
 *
 * This is the central correctness oracle for the DMT engine: because
 * DMT executes with value-speculated thread inputs and re-executes
 * instructions selectively, the only end-to-end guarantee worth having
 * is "the finally-retired instruction stream equals sequential
 * execution".  The checker enforces exactly that.
 */

#ifndef DMT_SIM_CHECKER_HH
#define DMT_SIM_CHECKER_HH

#include <string>

#include "sim/functional.hh"

namespace dmt
{

/** What the timing simulator claims a retired instruction did. */
struct RetireRecord
{
    Addr pc = 0;
    int dest = -1;       ///< effective logical destination or -1
    u32 dest_val = 0;
    bool is_store = false;
    Addr mem_addr = 0;
    u32 store_val = 0;
    bool emitted_out = false;
    u32 out_val = 0;
};

/** Lock-step golden-model checker. */
class GoldenChecker
{
  public:
    /**
     * Start checking from the architectural state (@p state, @p mem)
     * the timing simulator being checked starts from: the program's
     * entry conditions or a mid-stream checkpoint.  The copy of @p mem
     * shares its pages copy-on-write.
     */
    GoldenChecker(const Program &prog, const ArchState &state,
                  const MainMemory &mem);

    /**
     * Verify one retired instruction.  Returns true on match; on
     * mismatch records a diagnostic (retrievable via error()) and
     * returns false.  Once a mismatch is seen the checker latches
     * failure.
     */
    bool onRetire(const RetireRecord &rec);

    /** True while no mismatch has been observed. */
    bool ok() const { return error_.empty(); }

    /** First mismatch diagnostic (empty when ok). */
    const std::string &error() const { return error_; }

    /** Instructions verified so far. */
    u64 verified() const { return verified_; }

    /** True when the golden execution has reached HALT. */
    bool goldenHalted() const { return state.halted; }

  private:
    const Program &prog;
    ArchState state;
    MainMemory mem;
    std::string error_;
    u64 verified_ = 0;
};

} // namespace dmt

#endif // DMT_SIM_CHECKER_HH
