/**
 * @file
 * The generated-program population that both scenario sweeps cover:
 * the differential conformance matrix (test_conformance.cc) and the
 * translated fast-forward bit-identity sweep (test_translated.cc).
 * Scenario count: all generator families x DMT_CONF_SEEDS seeds
 * (default 15, i.e. 105 scenarios; CI smoke uses 2).
 */

#ifndef DMT_TESTS_SCENARIOS_HH
#define DMT_TESTS_SCENARIOS_HH

#include "cli/env.hh"
#include "common/rng.hh"
#include "workloads/generator.hh"

namespace dmt
{

/** Seeds per family (strict parse: garbage in the env is fatal). */
inline int
seedsPerFamily()
{
    static const int n = [] {
        const u64 v = parseEnvU64("DMT_CONF_SEEDS", 0);
        return v > 0 ? static_cast<int>(v) : 15;
    }();
    return n;
}

/**
 * Scenario knobs, derived deterministically from (family, seed) so the
 * sweep covers the knob space instead of pinning defaults.  Bounded so
 * each program retires a few hundred to a few tens of thousands of
 * instructions — long enough to spawn threads, short enough that a
 * hundred scenarios stay fast.
 */
inline GenParams
scenarioParams(int family_idx, u64 seed)
{
    const GenFamilyInfo &fam =
        genFamilies()[static_cast<size_t>(family_idx)];
    Rng r(seed * 0x9e3779b97f4a7c15ull
          + static_cast<u64>(family_idx) * 0x100000001b3ull);
    GenParams p;
    p.family = fam.name;
    p.seed = seed;
    p.depth = 2 + static_cast<int>(r.below(4));    // 2..5
    p.trips = 4 + static_cast<int>(r.below(24));   // 4..27
    p.entropy = static_cast<int>(r.below(101));
    p.alias = static_cast<int>(r.below(101));
    p.units = 8 + static_cast<int>(r.below(41));   // 8..48
    return p;
}

} // namespace dmt

#endif // DMT_TESTS_SCENARIOS_HH
