/**
 * @file
 * The reference run that assembler, builder, engine and fuzz tests
 * compare against: a program's output stream from a functional
 * execution at its entry conditions.
 */

#ifndef DMT_TESTS_REFERENCE_RUN_HH
#define DMT_TESTS_REFERENCE_RUN_HH

#include <vector>

#include "sim/functional.hh"

namespace dmt
{

/** OUT values of a functional run of @p prog from its entry to HALT. */
inline std::vector<u32>
referenceOutput(const Program &prog)
{
    ArchState st;
    MainMemory mem;
    st.reset(prog);
    mem.loadProgram(prog);
    runFunctional(st, mem, prog);
    return st.output;
}

} // namespace dmt

#endif // DMT_TESTS_REFERENCE_RUN_HH
