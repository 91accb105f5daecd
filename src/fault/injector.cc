#include "fault/injector.hh"

namespace dmt
{

void
FaultInjector::configure(const FaultOptions &opts)
{
    opts_ = opts;
    bool any = false;
    for (int i = 0; i < kNumFaultSites; ++i) {
        // Independent streams per site: the draw and corruption
        // sequences of one site are unaffected by the others' rates.
        draw_[i] = Rng(opts.seed * 0x9e3779b97f4a7c15ull
                       + static_cast<u64>(2 * i + 1));
        value_[i] = Rng(opts.seed * 0xbf58476d1ce4e5b9ull
                        + static_cast<u64>(2 * i + 2));
        injected_[i] = 0;
        offered_[i] = 0;
        any = any || opts.rate[i] > 0.0;
    }
    enabled_ = opts.enabled && any;
}

bool
FaultInjector::roll(FaultSite site)
{
    const int i = static_cast<int>(site);
    ++offered_[i];
    if (opts_.rate[i] <= 0.0)
        return false;
    if (!draw_[i].chance(opts_.rate[i]))
        return false;
    ++injected_[i];
    return true;
}

Rng &
FaultInjector::valueRng(FaultSite site)
{
    return value_[static_cast<int>(site)];
}

u64
FaultInjector::injected(FaultSite site) const
{
    return injected_[static_cast<int>(site)];
}

u64
FaultInjector::injectedTotal() const
{
    u64 n = 0;
    for (u64 v : injected_)
        n += v;
    return n;
}

u64
FaultInjector::offered(FaultSite site) const
{
    return offered_[static_cast<int>(site)];
}

} // namespace dmt
