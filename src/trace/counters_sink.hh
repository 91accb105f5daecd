/**
 * @file
 * Machine-readable counters sink: tallies events per kind and records
 * the periodic TraceSample series, then serializes both as JSON.  The
 * output is meant for scripts (plotting window occupancy over time,
 * diffing event mixes across configs) rather than for humans.
 */

#ifndef DMT_TRACE_COUNTERS_SINK_HH
#define DMT_TRACE_COUNTERS_SINK_HH

#include <array>
#include <string>
#include <vector>

#include "trace/sink.hh"

namespace dmt
{

class JsonWriter;

/** TraceSink producing a JSON time series of engine counters. */
class CountersSink : public TraceSink
{
  public:
    /** @param path output file; @param period cycles between samples
     *  (recorded in the document, sampling cadence is the Tracer's). */
    CountersSink(std::string path, int period);
    ~CountersSink() override;

    void event(const TraceEvent &e) override;
    void sample(const TraceSample &s) override;
    void finish() override;

    /** Serialize the document so far (for tests; valid any time). */
    void jsonOn(JsonWriter &w) const;

  private:
    std::string path;
    int period;
    bool finished = false;
    std::array<u64, kNumTraceEventKinds> counts{};
    std::vector<TraceSample> samples;
};

} // namespace dmt

#endif // DMT_TRACE_COUNTERS_SINK_HH
