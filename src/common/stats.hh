/**
 * @file
 * Lightweight statistics primitives: named scalar counters, averages, and
 * fixed-bucket histograms, grouped in a StatGroup that can render itself
 * as text.  The DMT engine exposes all of its counters through this.
 */

#ifndef DMT_COMMON_STATS_HH
#define DMT_COMMON_STATS_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace dmt
{

class JsonWriter;

/** A named 64-bit event counter. */
class Counter
{
  public:
    Counter() = default;

    void operator+=(u64 n) { value_ += n; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void reset() { value_ = 0; }

    /** Accumulate another counter (interval aggregation). */
    void merge(const Counter &other) { value_ += other.value_; }

    u64 value() const { return value_; }

  private:
    u64 value_ = 0;
};

/** Running mean of sampled values (e.g. thread sizes). */
class Average
{
  public:
    void sample(double v);
    void reset();

    /** Pool another average's samples into this one. */
    void merge(const Average &other);

    u64 count() const { return n; }
    double mean() const { return n == 0 ? 0.0 : sum / double(n); }
    double min() const { return n == 0 ? 0.0 : lo; }
    double max() const { return n == 0 ? 0.0 : hi; }

  private:
    double sum = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    u64 n = 0;
};

/** Histogram with uniform buckets over [lo, hi); outliers clamp. */
class Histogram
{
  public:
    Histogram(double lo, double hi, int nbuckets);

    void sample(double v);
    void reset();

    /** Add another histogram's buckets; shapes must match exactly. */
    void merge(const Histogram &other);

    u64 count() const { return total; }
    u64 bucketCount(int i) const { return buckets.at(i); }
    int numBuckets() const { return static_cast<int>(buckets.size()); }
    double bucketLow(int i) const;
    double bucketHigh(int i) const;

    /** Render a compact one-line summary. */
    std::string toString() const;

  private:
    double lo;
    double hi;
    std::vector<u64> buckets;
    u64 total = 0;
};

/**
 * Named collection of stats for reporting.  Members register themselves
 * through add() and are formatted by dump() and jsonOn(), which list
 * counters, then averages, then histograms, each in registration
 * order.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);

    void add(const std::string &name, const Counter *c,
             const std::string &desc);
    void add(const std::string &name, const Average *a,
             const std::string &desc);
    void add(const std::string &name, const Histogram *h,
             const std::string &desc);

    /** Format all registered stats, one per line. */
    std::string dump() const;

    /** Serialize all registered stats as a JSON object. */
    void jsonOn(JsonWriter &w) const;

    const std::string &name() const { return name_; }

  private:
    struct CounterEntry
    {
        std::string name;
        const Counter *counter;
        std::string desc;
    };
    struct AverageEntry
    {
        std::string name;
        const Average *avg;
        std::string desc;
    };
    struct HistogramEntry
    {
        std::string name;
        const Histogram *hist;
        std::string desc;
    };

    std::string name_;
    std::vector<CounterEntry> counters;
    std::vector<AverageEntry> averages;
    std::vector<HistogramEntry> histograms;
};

} // namespace dmt

#endif // DMT_COMMON_STATS_HH
