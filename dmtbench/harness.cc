#include "harness.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace dmtbench
{

bool
parseOptions(int argc, char **argv, Options *out, std::string *err)
{
    Options o;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            *err = "missing value after " + flag;
            return false;
        }
        const std::string val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            errno = 0;
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end || errno || val[0] == '-') {
                *err = "bad --seed " + val;
                return false;
            }
            have_seed = true;
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(o.seconds > 0.0)
                || o.seconds > 120.0) {
                *err = "bad --seconds " + val + " (want 0 < s <= 120)";
                return false;
            }
            have_seconds = true;
        } else if (flag == "--trace") {
            if (val != "0" && val != "1") {
                *err = "bad --trace " + val + " (want 0 or 1)";
                return false;
            }
            o.trace = val == "1";
            have_trace = true;
        } else if (flag == "--scratch") {
            o.scratch = val;
        } else {
            *err = "unknown argument " + flag;
            return false;
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        *err = "need --workload, --seed, --seconds and --trace";
        return false;
    }
    *out = o;
    return true;
}

std::string
firstDmtVariable(char **envp)
{
    for (char **e = envp; e && *e; ++e) {
        if (std::strncmp(*e, "DMT_", 4) == 0) {
            const char *eq = std::strchr(*e, '=');
            return eq ? std::string(*e, static_cast<size_t>(eq - *e))
                      : std::string(*e);
        }
    }
    return "";
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream f("/proc/self/clear_refs");
    f << "5"; // reset the peak RSS (Linux >= 4.0)
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

// ---- statistics ---------------------------------------------------------

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace
{

/** Nearest rank (1-based) of percentile @p q in @p n samples: the
 *  smallest rank with at least q% of the sample at or below it.  The
 *  epsilon keeps 99.9% of 10000 at 9990, not 9991. */
size_t
nearestRank(double q, size_t n)
{
    const double rank = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(q, v.size()) - 1];
}

Tail
supportedTail(const std::vector<double> &v)
{
    static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    Tail t;
    t.n = v.size();
    if (v.empty())
        return t;
    for (double p : kLadder) {
        // Samples strictly beyond the nearest-rank position.
        if (v.size() - nearestRank(p, v.size()) >= 10) {
            t.pct = p;
            t.value = percentile(v, p);
            return t;
        }
    }
    return t;
}

void
OpTimes::add(const std::string &kind, double seconds)
{
    times_[kind].push_back(seconds);
}

double
OpTimes::median(const std::string &kind) const
{
    auto it = times_.find(kind);
    return it == times_.end() ? 0.0 : dmtbench::median(it->second);
}

double
OpTimes::sumOfMedians() const
{
    double s = 0.0;
    for (const auto &[kind, t] : times_)
        s += dmtbench::median(t);
    return s;
}

size_t
OpTimes::minReps() const
{
    size_t m = times_.empty() ? 0 : ~size_t{0};
    for (const auto &[kind, t] : times_)
        m = std::min(m, t.size());
    return m;
}

double
cpiErrPct(const std::vector<double> &sampled,
          const std::vector<double> &reference)
{
    if (sampled.empty() || sampled.size() != reference.size())
        return NAN;
    double sum = 0.0;
    for (size_t i = 0; i < sampled.size(); ++i)
        sum += std::fabs(sampled[i] - reference[i]) / reference[i];
    return sum / static_cast<double>(sampled.size()) * 100.0;
}

u64
mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::vector<size_t>
requestStream(u64 seed, size_t unique, size_t repeats)
{
    std::vector<size_t> order;
    order.reserve(unique * repeats);
    for (size_t r = 0; r < repeats; ++r)
        for (size_t j = 0; j < unique; ++j)
            order.push_back(j);
    u64 state = seed;
    for (size_t i = order.size(); i > 1; --i) {
        state = mix64(state);
        std::swap(order[i - 1], order[state % i]);
    }
    return order;
}

// ---- failure accounting -------------------------------------------------

void
Tally::fail(const std::string &why)
{
    ++failed_;
    std::fprintf(stderr, "dmtbench: FAILED: %s\n", why.c_str());
}

bool
Tally::expectSame(std::string_view what, std::string_view expected,
                  std::string_view got)
{
    if (expected == got)
        return true;
    fail(std::string(what) + ": output differs from its reference");
    return false;
}

// ---- spans --------------------------------------------------------------

Spans::Spans()
{
    // Reserved up front so recording never reallocates mid-operation.
    spans_.reserve(1u << 16);
    stack_.reserve(64);
}

Spans::Scope::Scope(Spans &s, const char *name) : s_(&s)
{
    if (!s.on_)
        return;
    idx_ = static_cast<long>(s.spans_.size());
    const long parent = s.stack_.empty() ? -1 : s.stack_.back();
    s.spans_.push_back(Span{name, s.op_, s.pass_, parent, 0.0, 0.0});
    s.stack_.push_back(idx_);
    s.spans_.back().t0 = nowS();
}

Spans::Scope::~Scope()
{
    if (idx_ < 0)
        return;
    s_->spans_[static_cast<size_t>(idx_)].t1 = nowS();
    s_->stack_.pop_back();
}

long
Spans::record(const char *name, u64 op, long parent, double t0, double t1)
{
    if (!on_)
        return -1;
    spans_.push_back(Span{name, op, pass_, parent, t0, t1});
    return static_cast<long>(spans_.size()) - 1;
}

void
Spans::absorb(const Spans &o)
{
    const long base = static_cast<long>(spans_.size());
    u64 max_op = op_;
    for (const Span &sp : spans_)
        max_op = std::max(max_op, sp.op);
    for (Span sp : o.spans_) {
        sp.op += max_op;
        if (sp.parent >= 0)
            sp.parent += base;
        spans_.push_back(sp);
    }
    op_ = max_op + o.op_;
}

std::vector<double>
Spans::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].t1 - spans_[i].t0;
    for (const Span &sp : spans_)
        if (sp.parent >= 0)
            self[static_cast<size_t>(sp.parent)] -= sp.t1 - sp.t0;
    return self;
}

double
Spans::medianPassSelf(std::string_view name) const
{
    const std::vector<double> self = selfTimes();
    std::map<int, double> per_pass;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].pass < 0)
            continue;
        double &slot = per_pass[spans_[i].pass];
        if (name == spans_[i].name)
            slot += self[i];
    }
    std::vector<double> v;
    for (const auto &[pass, s] : per_pass)
        v.push_back(s);
    return median(v);
}

double
Spans::probeSelf(std::string_view name) const
{
    const std::vector<double> self = selfTimes();
    double s = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].pass < 0 && name == spans_[i].name)
            s += self[i];
    return s;
}

double
Spans::worstSelfGap() const
{
    const std::vector<double> self = selfTimes();
    std::map<u64, double> self_sum, root_dur;
    for (size_t i = 0; i < spans_.size(); ++i) {
        self_sum[spans_[i].op] += self[i];
        if (spans_[i].parent < 0)
            root_dur[spans_[i].op] += spans_[i].t1 - spans_[i].t0;
    }
    double worst = 0.0;
    for (const auto &[op, s] : self_sum)
        worst = std::max(worst, std::fabs(s - root_dur[op]));
    return worst;
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    const double t_base = spans_.empty() ? 0.0 : spans_.front().t0;
    f << "{\"spans\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &sp = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"op\":%llu,\"pass\":%d,"
                      "\"parent\":%ld,\"start_s\":%.9f,\"end_s\":%.9f}",
                      i ? "," : "", sp.name,
                      static_cast<unsigned long long>(sp.op), sp.pass,
                      sp.parent, sp.t0 - t_base, sp.t1 - t_base);
        f << buf;
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

// ---- results ------------------------------------------------------------

const std::vector<MetricDef> &
endToEndMetrics()
{
    // Host times in reference seconds (HostSpeed).
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"minstr_per_s", "Minstr/s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workloads.build_ms", "ms", "setup_s (all)"},
        {"dmt.ctor_ms", "ms", "wall_s (phase_whole); serve.miss_p50_ms"},
        {"dmt.run_s", "s", "wall_s, minstr_per_s (detail_suite)"},
        {"dmt.ns_per_dispatch", "ns", "minstr_per_s (detail_suite)"},
        {"dmt.cycles", "count", "none: simulated, speed-only changes "
                                "leave it identical"},
        {"dmt.retired", "count", "none: simulated"},
        {"dmt.dispatch_per_retired", "ratio", "none: simulated"},
        {"dmt.join_ratio", "ratio", "none: simulated"},
        {"dmt.dmt6_minstr_per_s", "Minstr/s",
         "minstr_per_s, wall_s (detail_suite)"},
        {"dmt.base_minstr_per_s", "Minstr/s",
         "minstr_per_s, wall_s (detail_suite)"},
        {"sim.oracle_ns_per_instr", "ns",
         "minstr_per_s (detail_suite): the golden checker's share"},
        {"sim.ff_minstr_per_s", "Minstr/s",
         "wall_s, minstr_per_s (phase_whole)"},
        {"sim.ff_chain_hit_ratio", "ratio", "wall_s (phase_whole)"},
        {"sim.ff_blocks_translated", "count", "wall_s (phase_whole)"},
        {"sim.bbv_ms", "ms", "wall_s (phase_whole)"},
        {"sim.ckpt_capture_ms", "ms",
         "wall_s (phase_whole); peak_rss_mb (serve_grid)"},
        {"sim.ckpt_pages", "count",
         "peak_rss_mb (phase_whole, serve_grid)"},
        {"phase.cluster_ms", "ms", "wall_s (phase_whole)"},
        {"phase.k", "count", "wall_s; sampled.cpi_err_pct (phase_whole)"},
        {"phase.intervals", "count", "phase.cluster_ms (phase_whole)"},
        {"sampled.func_ms", "ms", "wall_s (phase_whole)"},
        {"sampled.window_ms", "ms", "wall_s (phase_whole)"},
        {"sampled.detail_instr", "count",
         "sampled.window_ms; sampled.cpi_err_pct (phase_whole)"},
        {"sampled.cpi_err_pct", "%", "accuracy of phase_whole; "
                                     "deterministic"},
        {"sampled.ci95_covered", "count", "sampled.cpi_err_pct"},
        {"sampled.ckpt_hit_ratio", "ratio",
         "serve.miss_p50_ms, serve.miss_p90_ms (serve_grid)"},
        {"sampled.phase_hit_ratio", "ratio",
         "serve.miss_p90_ms (serve_grid)"},
        {"serve.parse_us", "us", "serve.hit_p50_ms (serve_grid)"},
        {"serve.req_per_s", "req/s", "wall_s (serve_grid)"},
        {"serve.hit_p50_ms", "ms", "wall_s (serve_grid)"},
        {"serve.hit_wait_ms", "ms",
         "wall_s, serve.req_per_s, serve.hit_p50_ms (serve_grid)"},
        {"serve.miss_p50_ms", "ms", "wall_s (serve_grid)"},
        {"serve.miss_p90_ms", "ms", "wall_s (serve_grid)"},
        {"serve.cache_hit_ratio", "ratio", "wall_s (serve_grid)"},
        {"serve.cache_joins", "count", "serve.miss_p50_ms (serve_grid)"},
        {"serve.spills", "count", "serve.miss_p50_ms (serve_grid)"},
        {"serve.jobs_simulated", "count", "wall_s (serve_grid)"},
        {"serve.worker_util", "ratio", "wall_s (serve_grid)"},
        {"serve.errors", "count", "failed operations (serve_grid)"},
        {"bench.untraced_wall_s", "s", "wall_s (same run, spans off)"},
        {"bench.traced_wall_s", "s", "wall_s with spans on"},
        {"bench.trace_overhead_s", "s",
         "bench.traced_wall_s - bench.untraced_wall_s"},
        {"bench.self_gap_us", "us",
         "worst |sum of self times - operation span|"},
        {"bench.calib_ms", "ms",
         "host speed: divides every host-time end-to-end metric"},
    };
    return defs;
}

void
Report::note(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    notes.emplace_back(buf);
}

void
reportHostTimes(const HostSpeed &host, double setup_s, double wall_s,
                double instr, Report *rep)
{
    const double f = host.factor();
    rep->set("setup_s", setup_s * f);
    rep->set("wall_s", wall_s * f);
    rep->set("minstr_per_s", ratio(instr / 1e6, wall_s * f));
    rep->set("bench.calib_ms", host.kernelS() * 1e3);
    rep->note("host speed: calibration kernel %.4f ms (reference %.4f ms), "
              "factor %.4f",
              host.kernelS() * 1e3, HostSpeed::kReferenceS * 1e3, f);
    rep->note("host seconds: setup_s %.6f s, wall_s %.6f s", setup_s,
              wall_s);
}

void
reportPeakRss(const std::vector<double> &pass_peaks_mb, Report *rep)
{
    if (pass_peaks_mb.empty())
        return;
    const auto [lo, hi] =
        std::minmax_element(pass_peaks_mb.begin(), pass_peaks_mb.end());
    rep->set("peak_rss_mb", *lo);
    rep->note("peak RSS per pass: min %.3f, median %.3f, max %.3f MB", *lo,
              median(pass_peaks_mb), *hi);
}

std::string
resultLine(const Report &rep, const std::vector<MetricDef> &defs,
           bool absent_is_zero, bool *correct)
{
    bool ok = rep.tally.failed() == 0 && rep.tally.attempted() > 0;
    std::string m;
    char buf[160];
    for (const MetricDef &d : defs) {
        double v = 0.0;
        auto it = rep.metrics.find(d.name);
        if (it != rep.metrics.end()) {
            v = it->second;
        } else if (!absent_is_zero) {
            std::fprintf(stderr, "dmtbench: metric %s not measured\n",
                         d.name);
            ok = false;
        }
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "dmtbench: metric %s is not finite\n",
                         d.name);
            ok = false;
            v = 0.0;
        }
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      m.empty() ? "" : ", ", d.name, v, d.unit);
        m += buf;
    }
    *correct = ok;
    std::snprintf(buf, sizeof(buf),
                  "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                  "\"metrics\": {",
                  ok ? "true" : "false",
                  static_cast<unsigned long long>(rep.tally.attempted()),
                  static_cast<unsigned long long>(rep.tally.failed()));
    return buf + m + "}}";
}

} // namespace dmtbench
