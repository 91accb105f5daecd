#include "common/stats.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"

namespace dmt
{

void
Average::sample(double v)
{
    if (n == 0) {
        lo = hi = v;
    } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    sum += v;
    ++n;
}

void
Average::reset()
{
    sum = 0.0;
    lo = hi = 0.0;
    n = 0;
}

void
Average::merge(const Average &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        lo = other.lo;
        hi = other.hi;
    } else {
        lo = std::min(lo, other.lo);
        hi = std::max(hi, other.hi);
    }
    sum += other.sum;
    n += other.n;
}

Histogram::Histogram(double lo_, double hi_, int nbuckets)
    : lo(lo_), hi(hi_), buckets(static_cast<size_t>(nbuckets), 0)
{
    DMT_ASSERT(nbuckets > 0 && hi_ > lo_, "bad histogram shape");
}

void
Histogram::sample(double v)
{
    const int n = numBuckets();
    double frac = (v - lo) / (hi - lo);
    int idx = static_cast<int>(frac * n);
    idx = std::clamp(idx, 0, n - 1);
    ++buckets[static_cast<size_t>(idx)];
    ++total;
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    total = 0;
}

void
Histogram::merge(const Histogram &other)
{
    DMT_ASSERT(lo == other.lo && hi == other.hi
                   && buckets.size() == other.buckets.size(),
               "merging histograms of different shape");
    for (size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    total += other.total;
}

double
Histogram::bucketLow(int i) const
{
    return lo + (hi - lo) * i / numBuckets();
}

double
Histogram::bucketHigh(int i) const
{
    return lo + (hi - lo) * (i + 1) / numBuckets();
}

std::string
Histogram::toString() const
{
    std::ostringstream os;
    os << "[";
    for (int i = 0; i < numBuckets(); ++i) {
        if (i)
            os << " ";
        os << buckets[static_cast<size_t>(i)];
    }
    os << "] n=" << total;
    return os.str();
}

StatGroup::StatGroup(std::string name)
    : name_(std::move(name))
{
}

void
StatGroup::add(const std::string &name, const Counter *c,
               const std::string &desc)
{
    counters.push_back({name, c, desc});
}

void
StatGroup::add(const std::string &name, const Average *a,
               const std::string &desc)
{
    averages.push_back({name, a, desc});
}

void
StatGroup::add(const std::string &name, const Histogram *h,
               const std::string &desc)
{
    histograms.push_back({name, h, desc});
}

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    char line[256];
    for (const auto &e : counters) {
        std::snprintf(line, sizeof(line), "%s.%-32s %12llu  # %s\n",
                      name_.c_str(), e.name.c_str(),
                      static_cast<unsigned long long>(e.counter->value()),
                      e.desc.c_str());
        os << line;
    }
    for (const auto &e : averages) {
        std::snprintf(line, sizeof(line),
                      "%s.%-32s %12.3f  # %s (n=%llu min=%.1f max=%.1f)\n",
                      name_.c_str(), e.name.c_str(), e.avg->mean(),
                      e.desc.c_str(),
                      static_cast<unsigned long long>(e.avg->count()),
                      e.avg->min(), e.avg->max());
        os << line;
    }
    for (const auto &e : histograms) {
        std::snprintf(line, sizeof(line), "%s.%-32s ", name_.c_str(),
                      e.name.c_str());
        os << line << e.hist->toString() << "  # " << e.desc << "\n";
    }
    return os.str();
}

void
StatGroup::jsonOn(JsonWriter &w) const
{
    w.beginObject();
    w.key("name").value(std::string_view(name_));

    w.key("counters").beginObject();
    for (const auto &e : counters)
        w.key(e.name).value(e.counter->value());
    w.endObject();

    w.key("averages").beginObject();
    for (const auto &e : averages) {
        w.key(e.name).beginObject();
        w.key("mean").value(e.avg->mean());
        w.key("min").value(e.avg->min());
        w.key("max").value(e.avg->max());
        w.key("count").value(e.avg->count());
        w.endObject();
    }
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &e : histograms) {
        const Histogram &h = *e.hist;
        w.key(e.name).beginObject();
        w.key("lo").value(h.bucketLow(0));
        w.key("hi").value(h.bucketHigh(h.numBuckets() - 1));
        w.key("total").value(h.count());
        w.key("buckets").beginArray();
        for (int i = 0; i < h.numBuckets(); ++i)
            w.value(h.bucketCount(i));
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

} // namespace dmt
