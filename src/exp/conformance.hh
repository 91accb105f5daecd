/**
 * @file
 * Differential conformance harness: proves that the cycle-level
 * engines and the functional core agree, instruction-exactly, on a
 * given workload.  The functional interpreter runs the program to
 * completion and yields the reference final architectural state
 * (registers, sparse memory pages, OUT stream, executed count); each
 * detailed machine must then complete the same program golden-clean
 * and land on the *identical* final state.  Combined with the seeded
 * workload generator (workloads/generator.hh) every `gen:` spec
 * becomes a self-checking test case — the conformance suite sweeps
 * hundreds of them.
 *
 * The memory comparison is sound because of two engine invariants:
 * stores reach the architectural MainMemory only at final retirement,
 * and loads never allocate pages — so after a completed run the
 * engine's memory must equal the functional execution's memory
 * sparse-page-exactly (MainMemory::operator==).
 */

#ifndef DMT_EXP_CONFORMANCE_HH
#define DMT_EXP_CONFORMANCE_HH

#include <string>

#include "uarch/config.hh"

namespace dmt
{

/** Knobs for one conformance check. */
struct ConformanceOptions
{
    /** Safety bound on the functional reference run. */
    u64 max_steps = 5'000'000;

    /** The DMT machine also reruns under an all-site fault storm and
     *  must recover golden-clean onto the same final state. */
    double fault_rate = 0.02;
    u64 fault_seed = 0xF00D;
};

/** Outcome of one conformance check. */
struct ConformanceReport
{
    bool ok = true;
    /** First divergence, formatted for a test failure message. */
    std::string detail;

    u64 functional_steps = 0; ///< reference executed-instruction count
};

/**
 * Full differential check of @p workload across the paper's two
 * machines — baseline superscalar and dmt6 (2 fetch ports) — plus a
 * fault-storm leg on the DMT machine.
 */
ConformanceReport
checkConformance(const std::string &workload,
                 const ConformanceOptions &opts = ConformanceOptions());

} // namespace dmt

#endif // DMT_EXP_CONFORMANCE_HH
