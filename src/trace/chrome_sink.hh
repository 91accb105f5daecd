/**
 * @file
 * Chrome trace-event JSON exporter.  Produces a file loadable in
 * chrome://tracing or https://ui.perfetto.dev with one track per
 * hardware thread context:
 *
 *  - thread lifetimes as duration slices (spawn -> retire/squash),
 *  - recovery walks as nested duration slices,
 *  - squashes, joins, LSQ violations, branch mispredictions, late
 *    divergences and ICache misses as instant markers,
 *  - periodic counter tracks (active threads, window occupancy, IPC),
 *  - optionally one slice per instruction lifetime (fetch -> final
 *    retirement) when TraceOptions::insts is set.
 *
 * Timestamps are simulated cycles rendered as microseconds (1 cycle =
 * 1 us on the viewer's axis).  The document is buffered in memory and
 * written once by finish(), so several engines tracing to the same
 * path do not interleave writes.
 */

#ifndef DMT_TRACE_CHROME_SINK_HH
#define DMT_TRACE_CHROME_SINK_HH

#include <array>
#include <string>

#include "trace/sink.hh"

namespace dmt
{

/** TraceSink rendering the Chrome trace-event format. */
class ChromeSink : public TraceSink
{
  public:
    /** @param path output file; @param insts per-instruction slices. */
    ChromeSink(std::string path, bool insts);
    ~ChromeSink() override;

    void event(const TraceEvent &e) override;
    void sample(const TraceSample &s) override;
    void finish() override;

    /** The complete document text (for tests; valid any time). */
    std::string document() const;

  private:
    struct Track
    {
        bool seen = false;       ///< metadata emitted
        bool thread_open = false;
        bool recov_open = false;
    };

    Track &track(ThreadId tid);
    void append(const std::string &json_obj);
    void metaString(ThreadId tid, const char *what,
                    const std::string &name);
    void duration(char ph, ThreadId tid, Cycle ts,
                  const std::string &name, const TraceEvent *args);
    void instant(ThreadId tid, Cycle ts, const std::string &name,
                 const TraceEvent &e);
    void closeRecovery(ThreadId tid, Cycle ts);
    void closeThread(ThreadId tid, Cycle ts);

    std::string path;
    bool insts;
    std::string body; ///< comma-joined event objects
    bool first = true;
    bool finished = false;
    u64 events_written = 0;
    Cycle last_ts = 0;
    static constexpr int kMaxTracks = 64;
    std::array<Track, kMaxTracks> tracks{};
};

} // namespace dmt

#endif // DMT_TRACE_CHROME_SINK_HH
