/**
 * @file
 * Shared machinery of the end-to-end benchmark (dmtbench): command
 * line, hermetic-environment check, the statistics every metric is
 * built from, failure accounting, benchmark-side spans, and the
 * result line the benchmark prints.
 *
 * Everything here lives outside the simulator: spans are taken around
 * calls into the simulator's public functions from the benchmark's own
 * files, so the program under test is measured exactly as shipped.
 */

#ifndef DMTBENCH_HARNESS_HH
#define DMTBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dmtbench
{

using u64 = std::uint64_t;

/** One benchmark run's command line. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0; ///< measured time budget
    bool trace = false;    ///< per-layer run instead of end-to-end
    /** Directory for span dumps and serve caches (created). */
    std::string scratch = ".bench_build/dmtbench-run";
};

/**
 * Parse `--workload W --seed N --seconds S --trace 0|1
 * [--scratch DIR]`.  @retval false with @p err set on anything else.
 */
bool parseOptions(int argc, char **argv, Options *out, std::string *err);

/**
 * The first DMT_* variable in @p envp, or "" when there is none.  The
 * simulator library reads many DMT_* knobs on its own (fault
 * injection, watchdog, tracer, budgets, engines), and any of them
 * would silently change what is measured.
 */
std::string firstDmtVariable(char **envp);

/** Seconds on the steady clock. */
double nowS();

/**
 * Start a new peak-RSS window: hand freed heap memory back to the
 * kernel and reset the kernel's high-water mark, so the next
 * peakRssMb() covers only what runs in between.  Without this, memory
 * retained by earlier passes (malloc arenas of threads long gone)
 * would make the peak grow with the number of passes.  Where the
 * kernel refuses the reset, peakRssMb() reads the process-lifetime
 * peak instead.
 */
void resetPeakRss();

/** Peak resident set size (VmHWM) since the last reset, in MB. */
double peakRssMb();

/** Host seconds of one run of the calibration kernel (calibrate.cc). */
double calibrationKernelS();

// ---- statistics ---------------------------------------------------------

/** @p num / @p den, or 0 when @p den is 0 (a layer never called). */
double ratio(double num, double den);

/** Median; 0 for an empty sample. */
double median(std::vector<double> v);

/** Nearest-rank percentile @p q (0 < q <= 100); 0 for an empty sample. */
double percentile(std::vector<double> v, double q);

/** A tail percentile together with the sample it came from. */
struct Tail
{
    double pct = 0.0;   ///< percentile reported (0 when n < 10)
    double value = 0.0;
    size_t n = 0;       ///< sample count
};

/**
 * The highest of p50/p75/p90/p95/p99/p99.9 that has at least ten
 * samples beyond it (n * (1 - p/100) >= 10), with the sample count.
 * Below ten samples no percentile qualifies and pct stays 0.
 */
Tail supportedTail(const std::vector<double> &v);

/**
 * Host times of repeated identical operations, keyed by operation
 * kind.  Every host-time metric is built from per-kind medians, so
 * op-to-op noise (10-15% CV on a 4-vCPU VM) is filtered before kinds
 * are combined, and no percentile is ever taken across kinds.
 */
class OpTimes
{
  public:
    void add(const std::string &kind, double seconds);
    /** Median time of @p kind (0 when never recorded). */
    double median(const std::string &kind) const;
    /** Sum over kinds of the per-kind median: one pass's wall time. */
    double sumOfMedians() const;
    /** Fewest repetitions of any kind. */
    size_t minReps() const;

  private:
    std::map<std::string, std::vector<double>> times_;
};

/**
 * Host-speed calibration.  The VM's speed drifts with its host's other
 * load, by over 1.5x across minutes, and no run length averages that
 * out.  So every host-time end-to-end metric is reported in reference
 * seconds: host seconds times kReferenceS over the median time of the
 * calibration kernel, sampled between the run's operations.  The
 * kernel is the benchmark's own code, so a change to the simulator
 * moves the metrics in full, while host drift moves them about a third
 * as much.
 */
class HostSpeed
{
  public:
    /** The kernel's time on the reference host (the build VM). */
    static constexpr double kReferenceS = 0.002;

    /** Time the kernel once; call between operations. */
    void sample() { samples_.push_back(calibrationKernelS()); }
    /** Median kernel time over the run, host seconds. */
    double kernelS() const { return median(samples_); }
    /** Host seconds times this are reference seconds. */
    double factor() const { return ratio(kReferenceS, kernelS()); }

  private:
    std::vector<double> samples_;
};

/**
 * Mean of |sampled - reference| / reference over the pairs, in
 * percent.  The vectors must have equal, non-zero length.
 */
double cpiErrPct(const std::vector<double> &sampled,
                 const std::vector<double> &reference);

/**
 * A seeded replay order: each of @p unique job indices appears
 * @p repeats times, Fisher-Yates shuffled by a splitmix64 stream of
 * @p seed.  The same seed always gives the same order.
 */
std::vector<size_t> requestStream(u64 seed, size_t unique,
                                  size_t repeats);

/** splitmix64 step: a well-mixed 64-bit value from @p x. */
u64 mix64(u64 x);

// ---- failure accounting -------------------------------------------------

/**
 * Operations attempted and failed.  A simulation error, an error
 * reply, a client timeout or an output that differs from its
 * reference each fail the operation they belong to.
 */
class Tally
{
  public:
    void attempt() { ++attempted_; }
    /** Fail the current operation and say why on stderr. */
    void fail(const std::string &why);
    /**
     * Compare an operation's output with its reference; a mismatch
     * fails the operation.  @return true when they are equal.
     */
    bool expectSame(std::string_view what, std::string_view expected,
                    std::string_view got);
    u64 attempted() const { return attempted_; }
    u64 failed() const { return failed_; }

  private:
    u64 attempted_ = 0;
    u64 failed_ = 0;
};

// ---- spans --------------------------------------------------------------

/**
 * Benchmark-side spans: one per call into a layer's public function,
 * with name, start, end, parent span and an operation id shared by
 * every span of one operation.  Kept in memory and written out when
 * the run ends.  Recording is switched per pass, so a traced run can
 * alternate traced and untraced passes and measure its own overhead.
 * One Spans object belongs to one thread.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name;
        u64 op;
        int pass;
        long parent; ///< index into spans(), -1 for an operation root
        double t0, t1;
    };

    Spans();

    /** Record spans from now on (or stop, with false). */
    void setRecording(bool on) { on_ = on; }
    /** Pass number stamped on subsequent spans. */
    void setPass(int pass) { pass_ = pass; }
    /** Start a new operation; subsequent spans carry its id. */
    u64 beginOp() { return ++op_; }

    /**
     * Append a finished span of operation @p op (ignored unless
     * recording), for calls whose lifetimes overlap and so cannot nest
     * as Scopes: pipelined requests on one connection.
     * @return its index, the parent for its children; -1 if ignored.
     */
    long record(const char *name, u64 op, long parent, double t0,
                double t1);

    /** RAII span around one call. */
    class Scope
    {
      public:
        Scope(Spans &s, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *s_;
        long idx_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }
    /** Append another thread's spans (op ids are offset to stay unique). */
    void absorb(const Spans &o);
    /** Duration minus the time covered by direct children, per span. */
    std::vector<double> selfTimes() const;
    /**
     * Per pass, the summed self time of spans named @p name; the median
     * over passes >= 0 that recorded any span.  Probe spans carry pass
     * -1 and are summed separately by probeSelf().
     */
    double medianPassSelf(std::string_view name) const;
    /** Summed self time of spans named @p name in pass -1 (probes). */
    double probeSelf(std::string_view name) const;
    /**
     * Largest |sum of self times - root duration| over operations.
     * Zero up to rounding when every child nests inside its parent.
     */
    double worstSelfGap() const;
    /** Write every span as JSON to @p path. @retval false on I/O error. */
    bool write(const std::string &path) const;

  private:
    bool on_ = false;
    int pass_ = 0;
    u64 op_ = 0;
    std::vector<Span> spans_;
    std::vector<long> stack_;
};

// ---- results ------------------------------------------------------------

/** Name and unit of one reported metric, and for a per-layer metric
 *  the end-to-end metrics (and workloads) it should move. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *moves = "";
};

/** Every end-to-end metric, in BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();
/** Every per-layer metric, in BENCHMARK.json order. */
const std::vector<MetricDef> &perLayerMetrics();

/** What one workload run measured and checked. */
struct Report
{
    Tally tally;
    std::map<std::string, double> metrics;
    /** Workload-specific figures printed above the result line. */
    std::vector<std::string> notes;

    void set(const std::string &name, double value)
    {
        metrics[name] = value;
    }
    void note(const char *fmt, ...) __attribute__((format(printf, 2, 3)));
};

/**
 * Set the host-time end-to-end metrics in reference seconds:
 * setup_s and wall_s from host seconds, minstr_per_s from @p instr
 * simulated instructions per pass; note the host figures beside them.
 */
void reportHostTimes(const HostSpeed &host, double setup_s, double wall_s,
                     double instr, Report *rep);

/**
 * Set peak_rss_mb from per-pass peaks (resetPeakRss() before each
 * pass, peakRssMb() after): the smallest, i.e. the memory a pass
 * needs.  Later passes add only what earlier ones left behind, such as
 * the malloc arenas of a previous daemon's threads, which a real
 * process never carries.
 */
void reportPeakRss(const std::vector<double> &pass_peaks_mb, Report *rep);

/**
 * The result line: {"correct","attempted","failed","metrics"} with
 * exactly the metrics of @p defs.  A metric that is not finite makes
 * the run incorrect, and so does one the report lacks unless
 * @p absent_is_zero (per-layer metrics of layers a workload never
 * calls read 0).
 */
std::string resultLine(const Report &rep,
                       const std::vector<MetricDef> &defs,
                       bool absent_is_zero, bool *correct);

} // namespace dmtbench

#endif // DMTBENCH_HARNESS_HH
