/**
 * @file
 * Wire protocol for the simulation service: line-delimited JSON over a
 * local TCP socket.  One request per line, one reply per request; the
 * server may interleave replies from one connection's requests in
 * completion order, so every request carries a client-chosen "id" that
 * the reply echoes back.
 *
 * Requests:
 *
 *   {"op":"run","id":1,"job":{"workload":"go","max_retired":60000,
 *       "sample":"20000:500:1500:5","priority":2,
 *       "config":{"machine":"dmt","max_threads":6,"fetch_ports":2}}}
 *   {"op":"stats","id":2}
 *   {"op":"ping","id":3}
 *   {"op":"shutdown","id":4}
 *
 * Replies:
 *
 *   {"id":1,"ok":true,"cached":false,"key":"<16-hex>",
 *       "result_hash":"<16-hex>","result":{...canonical RunResult...}}
 *   {"id":1,"ok":false,"kind":"sim_error","error":"..."}
 *   {"id":2,"ok":true,"stats":{...}}
 *
 * Error replies carry a machine-readable "kind" so clients can decide
 * what to do without parsing prose: "bad_request" (malformed line or
 * rejected job spec), "overloaded" (job queue full — retryable),
 * "draining" (daemon shutting down — retryable against a replacement),
 * "deadline" (the job's wall-clock budget expired, in queue or
 * mid-run), "sim_error" (SimError inside the simulation: watchdog,
 * invariant audit, golden mismatch), or the generic "error".  Run
 * requests are idempotent by construction — the cache key is a pure
 * function of the job — so retrying any of these is always safe.
 *
 * A run job may carry "deadline_ms": its wall-clock budget measured
 * from enqueue (0 or absent = the daemon's DMT_SERVE_DEADLINE_S
 * default).  The deadline is scheduling state, not job identity: two
 * requests differing only in deadline_ms share one cache cell.
 *
 * The embedded "result" document is the *byte-exact* canonical
 * RunResult JSON (spliced with JsonWriter::rawValue, never re-parsed),
 * and "result_hash" is its FNV-1a digest — so a client can prove a
 * cached answer is identical to a freshly computed or locally run one
 * without trusting the cache.
 *
 * Everything here parses without side effects: a malformed request, an
 * unknown workload or an out-of-range configuration produces an error
 * string for an error *reply* — never the fatal() exit the CLI tools
 * use, which would take the daemon down with the request.
 */

#ifndef DMT_SERVE_PROTOCOL_HH
#define DMT_SERVE_PROTOCOL_HH

#include <string>
#include <string_view>

#include "common/json.hh"
#include "exp/sampled.hh"
#include "uarch/config.hh"

namespace dmt
{

/** One simulation request, fully resolved and validated. */
struct JobSpec
{
    std::string workload;  ///< canonical: resolveWorkload()'s output
    SimConfig cfg;         ///< machine; cfg.max_retired == budget
    /** Resolved retirement budget (effectiveBudget() already applied,
     *  so identical effective requests share one cache key). */
    u64 max_retired = 0;
    SampleParams sample;   ///< job-level sampling
    i64 priority = 0;      ///< larger = scheduled sooner
    /** Wall-clock budget from enqueue, milliseconds; 0 = the daemon's
     *  DMT_SERVE_DEADLINE_S default.  Not part of the cache key. */
    u64 deadline_ms = 0;
};

/** A parsed client request. */
struct Request
{
    enum class Op { Run, Stats, Ping, Shutdown };
    Op op = Op::Ping;
    /** Echoed back in the reply; Null when the client sent none. */
    JsonValue id;
    JobSpec job;           ///< populated when op == Run
};

/**
 * Parse and validate one request line.  A run job's "config" object
 * takes "machine" (a template, applied first) and the keys of
 * SimConfig::forEachJobField(), the list of every setting that changes
 * a result.  That is exactly what SimConfig::jsonOn() emits, so a
 * recorded config document replays as the machine it names.  The
 * workload resolves through resolveWorkload(), and the whole config
 * must pass SimConfig::validate(), the same check a local run makes.
 * A run job that names no budget gets @p default_budget
 * (ServeOptions::default_budget) through effectiveBudget(); one that
 * names "max_retired", 0 included, gets exactly what runWorkloadJob()
 * would make of it.
 * @retval false with a description in @p err (when given); the caller
 * turns that into an error reply.
 */
bool parseRequest(std::string_view line, Request *out, std::string *err,
                  u64 default_budget = 0);

/** Serialize @p job as the protocol's "job" object. */
void jobSpecJsonOn(JsonWriter &w, const JobSpec &job);

/** Build a complete "run" request line (no trailing newline). */
std::string runRequestLine(i64 id, const JobSpec &job);

/** Build a bare {"op":...,"id":N} request line. */
std::string simpleRequestLine(const char *op, i64 id);

// ---- reply builders (no trailing newline) ------------------------------

/** Error-reply "kind" values; see the file header for semantics. */
namespace errkind
{
constexpr const char *kBadRequest = "bad_request";
constexpr const char *kOverloaded = "overloaded";
constexpr const char *kDraining = "draining";
constexpr const char *kDeadline = "deadline";
constexpr const char *kSimError = "sim_error";
constexpr const char *kGeneric = "error";
} // namespace errkind

/**
 * Every reply builder takes an optional @p req_hash: the FNV-1a digest
 * of the exact request line the server is answering, echoed back as
 * "req" (omitted when 0).  The client hashed the bytes it sent, so a
 * request mutated in flight — even into different-but-valid JSON the
 * server happily served — produces an echo mismatch the client can
 * treat as transport corruption and retry, instead of accepting an
 * answer to a question it never asked.
 */
std::string errorReply(const JsonValue &id, const std::string &message,
                       const char *kind = errkind::kGeneric,
                       u64 req_hash = 0);

/** The "kind" of a parsed error reply ("" for a success reply or a
 *  malformed document; kGeneric when an error reply carries none). */
std::string replyErrorKind(const JsonValue &reply);

/** Success reply for a run; @p result_json is spliced verbatim. */
std::string okRunReply(const JsonValue &id, std::string_view result_json,
                       u64 key, u64 result_hash, bool cached,
                       u64 req_hash = 0);

std::string pongReply(const JsonValue &id, u64 req_hash = 0);

/**
 * Slice the byte-exact "result" document out of an okRunReply() line.
 * Relies on "result" being the reply's final member — a property of our
 * reply builder, not of JSON — so clients and tests can compare the
 * canonical bytes without a lossy parse→dump round trip.
 * @retval false when @p reply_line is not a successful run reply.
 */
bool extractRawResult(std::string_view reply_line, std::string *out);

} // namespace dmt

#endif // DMT_SERVE_PROTOCOL_HH
