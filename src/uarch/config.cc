#include "uarch/config.hh"

#include "common/bitutils.hh"
#include "common/json.hh"
#include "common/strutil.hh"
#include "uarch/fu.hh"

namespace dmt
{

int
SimConfig::physRegCount() const
{
    // Registers are freed at early retirement (results live on in the
    // trace buffer data array), so live registers are bounded by the
    // in-pipeline population; the rest is headroom for same-cycle
    // transients and per-thread state.
    return 2 * kWindowSize + 64 * max_threads + 128;
}

int
SimConfig::lqSize() const
{
    return tb_size / 4;
}

int
SimConfig::sqSize() const
{
    return tb_size / 4;
}

namespace
{

/** validate()'s per-field rule: an integer field lies in its listed
 *  range; a flag has none. */
struct RangeCheck
{
    std::string &bad;

    void operator()(const char *, bool) const {}

    template <typename T>
    void
    operator()(const char *key, T field, T lo, T hi) const
    {
        if (bad.empty() && (field < lo || field > hi))
            bad = std::string(key) + " out of range";
    }
};

} // namespace

std::string
SimConfig::validate() const
{
    std::string bad;
    forEachJobField(*this, RangeCheck{bad});
    if (!bad.empty())
        return bad;
    if (!isPowerOfTwo(mem.l1i_bytes))
        return "l1i_bytes not a power of two";
    if (!isPowerOfTwo(mem.l2_bytes))
        return "l2_bytes not a power of two";
    if (max_retired > 0 && warmup_retired >= max_retired) {
        return strprintf(
            "warmup_retired %llu leaves no measurement window before "
            "max_retired %llu",
            static_cast<unsigned long long>(warmup_retired),
            static_cast<unsigned long long>(max_retired));
    }
    for (int i = 0; i < kNumFaultSites; ++i) {
        if (fault.rate[i] < 0.0 || fault.rate[i] > 1.0) {
            return strprintf("fault rate for %s out of [0, 1]: %g",
                             faultSiteName(static_cast<FaultSite>(i)),
                             fault.rate[i]);
        }
    }
    return {};
}

SimConfig
SimConfig::baseline()
{
    SimConfig c;
    c.max_threads = 1;
    c.spawn_on_call = false;
    c.spawn_on_loop = false;
    c.fetch_ports = 1;
    c.unlimited_fus = true;
    return c;
}

SimConfig
SimConfig::dmt(int threads, int ports)
{
    SimConfig c;
    c.max_threads = threads;
    c.fetch_ports = ports;
    c.unlimited_fus = true;
    c.tb_size = 500;
    return c;
}

std::string
SimConfig::summary() const
{
    return strprintf(
        "%s threads=%d ports=%d window=%d tb=%d/%d/%d fus=%s",
        isDmt() ? "DMT" : "base", max_threads, fetch_ports, kWindowSize,
        tb_size, tb_latency, tb_read_block,
        unlimited_fus ? "unlimited"
                      : strprintf("%dalu/%dmd/%dmem", FuPool::kAlus,
                                  FuPool::kMulDivUnits, FuPool::kMemPorts)
                            .c_str());
}

void
SimConfig::jsonOn(JsonWriter &w) const
{
    w.beginObject();
    w.key("machine").value(isDmt() ? "dmt" : "baseline");
    forEachJobField(*this, [&](const char *key, const auto &field, auto...) {
        w.key(key).value(field);
    });
    w.endObject();
}

} // namespace dmt
