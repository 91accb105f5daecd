/**
 * @file
 * Synthetic workload suite standing in for the paper's SPEC95int runs
 * (go, m88ksim, gcc, compress, li, ijpeg, perl, vortex).  Each kernel
 * is built programmatically (AsmBuilder) and mimics the control-flow
 * character that matters to DMT: call depth and frequency, loop
 * structure, branch predictability, and stack save/restore traffic.
 *
 * Every program is deterministic, self-checking (emits OUT checksums
 * that the golden model must reproduce) and ends in HALT.
 */

#ifndef DMT_WORKLOADS_WORKLOADS_HH
#define DMT_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "casm/program.hh"

namespace dmt
{

/** A named benchmark program. */
struct WorkloadInfo
{
    const char *name;
    const char *mimics;       ///< the SPEC95 benchmark it stands in for
    const char *character;    ///< dominant control-flow behaviour
    Program (*build)();
};

// The SPEC95int-like suite.
Program buildGo();        ///< branchy board evaluation (go)
Program buildM88ksim();   ///< CPU-interpreter dispatch loop (m88ksim)
Program buildGcc();       ///< recursive IR tree walking (gcc)
Program buildCompress();  ///< LZW-style hash compression (compress)
Program buildLi();        ///< recursive list interpreter (li)
Program buildIjpeg();     ///< nested-loop transform kernels (ijpeg)
Program buildPerl();      ///< string hashing interpreter (perl)
Program buildVortex();    ///< OO-database lookups (vortex)

/** All suite workloads, in the paper's reporting order. */
const std::vector<WorkloadInfo> &workloadSuite();

/**
 * Build a workload by name: a suite name, or a generated-family spec
 * "gen:<family>:<seed>[:knob=value...]" (see workloads/generator.hh).
 * fatal() on unknown names and malformed specs.
 */
Program buildWorkload(const std::string &name);

/**
 * Resolve a workload name without touching the process: a suite name
 * passes through, a gen: spec becomes its canonicalSpec().  Unknown
 * names and malformed specs return false with a message in @p err
 * (the daemon's error reply); canonicalWorkloadName() is the fatal()
 * form for local paths.
 */
bool resolveWorkload(const std::string &name, std::string *canonical,
                     std::string *err);

// ---- microkernels (tests and examples) --------------------------------

/** Recursive Fibonacci of @p n; OUTs the result. */
Program mkFibRecursive(int n);

/** Sum 0..n-1 in a simple loop; OUTs the sum. */
Program mkSumLoop(int n);

/** Dense @p n x @p n integer matrix multiply; OUTs a checksum. */
Program mkMatmul(int n);

/** Bubble-sorts @p n pseudo-random words; OUTs min, max, checksum. */
Program mkSort(int n);

/** Builds and walks a linked list of @p n nodes; OUTs the sum. */
Program mkLinkedList(int n);

/** Calls a tiny leaf procedure @p n times; OUTs an accumulator. */
Program mkCallChain(int n);

/** Data-dependent branch pattern over @p n PRNG draws; OUTs counts. */
Program mkBranchy(int n);

/** Store/load aliasing stress: writes then reads overlapping bytes. */
Program mkAliasStress(int n);

/** Deep recursion with stack save/restore of many registers. */
Program mkDeepRecursion(int depth);

/** Loop nest with an unusual (break-style) loop exit. */
Program mkLoopBreak(int outer, int inner);

} // namespace dmt

#endif // DMT_WORKLOADS_WORKLOADS_HH
