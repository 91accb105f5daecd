#include "trace/tracer.hh"

#include "common/log.hh"
#include "trace/chrome_sink.hh"
#include "trace/counters_sink.hh"
#include "trace/ring_sink.hh"

namespace dmt
{

Tracer::~Tracer()
{
    finish();
}

void
Tracer::configure(const TraceOptions &opts)
{
    sinks_.clear();
    ring_ = nullptr;
    enabled_ = false;
    finished_ = false;
    sample_period_ = opts.sample_period;

    if (!opts.enabled)
        return;

    bool any_selected = opts.ring || opts.chrome || opts.counters;
    if (opts.ring || !any_selected) {
        auto ring = std::make_unique<RingSink>(
            opts.ring_capacity > 0
                ? static_cast<size_t>(opts.ring_capacity) : 1);
        ring_ = ring.get();
        sinks_.push_back(std::move(ring));
    }
    if (opts.chrome) {
        sinks_.push_back(std::make_unique<ChromeSink>(opts.chrome_file,
                                                      opts.insts));
    }
    if (opts.counters) {
        sinks_.push_back(std::make_unique<CountersSink>(
            opts.counters_file, opts.sample_period));
    }
    enabled_ = !sinks_.empty();
}

void
Tracer::addSink(std::unique_ptr<TraceSink> sink)
{
    DMT_ASSERT(sink != nullptr, "addSink needs a sink");
    if (!ring_)
        ring_ = dynamic_cast<RingSink *>(sink.get());
    sinks_.push_back(std::move(sink));
    enabled_ = true;
    finished_ = false;
}

void
Tracer::sample(const TraceSample &s)
{
    if (!enabled_)
        return;
    for (auto &snk : sinks_)
        snk->sample(s);
}

void
Tracer::finish()
{
    if (finished_)
        return;
    finished_ = true;
    for (auto &snk : sinks_)
        snk->finish();
}

} // namespace dmt
