/**
 * @file
 * The persistent simulation daemon: a local TCP front-end that turns
 * the deterministic runWorkloadJob() funnel into a shared service.
 *
 * Architecture (one process):
 *
 *   acceptor thread ──► per-connection reader threads
 *                          │  parse line-delimited JSON requests
 *                          │  (protocol.hh); stats/ping answered
 *                          │  inline, run requests enqueued
 *                          ▼
 *                    priority job queue (larger priority first,
 *                          FIFO within a priority level)
 *                          ▼
 *                    worker pool (ServeOptions::pool, default the
 *                          host's cores) ──► ResultCache::getOrCompute
 *                          ──► reply on the requesting connection
 *
 * Replies carry the byte-exact canonical RunResult JSON; the result
 * cache makes repeated cells free and the sampled-path cache
 * (exp/sampled.hh) lets warm phase-sampled requests skip fast-forward.
 *
 * Lifecycle: requestDrain() (SIGTERM/SIGINT in dmt_served, or a
 * client "shutdown" request) stops accepting connections and reading
 * new requests; already-queued jobs run to completion and reply;
 * join() waits for that up to the drain timeout, after which any
 * still-queued jobs get structured "draining" error replies.  A job
 * that dies with SimError (watchdog, invariant audit, golden
 * mismatch) becomes an error reply, never a daemon exit — the same
 * containment contract SweepRunner gives sweeps.
 */

#ifndef DMT_SERVE_SERVER_HH
#define DMT_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/cache.hh"
#include "serve/protocol.hh"

namespace dmt
{

/** Daemon configuration.  The daemon reads no environment: dmt_served
 *  fills this from the DMT_SERVE_* knobs (cli/env.hh), and every job
 *  carries its own machine config and sample spec. */
struct ServeOptions
{
    /** Listening port on 127.0.0.1; 0 picks an ephemeral port
     *  (reported by Server::port()).  Default 1998 — the paper's
     *  publication year. */
    int port = 1998;
    /** Worker pool width; 0 = hardwareJobs(). */
    int pool = 0;
    /** Result-cache capacity in entries; 0 disables storage
     *  (single-flight dedup stays on). */
    u64 cache_entries = 4096;
    /** Seconds join() waits for queued jobs after a drain request
     *  before failing them with "draining" replies. */
    double drain_s = 30.0;
    /** Durable result-cache directory (DMT_SERVE_CACHE_DIR); every
     *  computed result is spilled here at compute time, so a crashed
     *  daemon restarted on the same directory replays answered cells
     *  from disk.  Empty keeps the cache memory-only. */
    std::string cache_dir;
    /** Job-queue bound (DMT_SERVE_QUEUE); a run request arriving with
     *  this many jobs already queued is rejected with a structured
     *  "overloaded" reply instead of buffered without limit.  0 =
     *  unbounded. */
    u64 queue_max = 1024;
    /** Default per-job wall-clock budget in seconds, measured from
     *  enqueue (DMT_SERVE_DEADLINE_S; a job's deadline_ms overrides).
     *  0 = no deadline. */
    double deadline_s = 0.0;
    /** Retirement budget for jobs that name none (DMT_BENCH_INSTR);
     *  0 = runWorkloadJob()'s default.  Resolved before the cache key
     *  (effectiveBudget()). */
    u64 default_budget = 0;
};

/** The daemon.  Construct, start(), eventually requestDrain()+join(). */
class Server
{
  public:
    explicit Server(const ServeOptions &opts);
    ~Server();

    /** Bind 127.0.0.1, spawn acceptor + workers.
     *  @retval false with @p err set when the socket setup fails. */
    bool start(std::string *err);

    /** The bound port (after start(); useful with opts.port == 0). */
    int port() const { return port_; }

    /** True once a drain was requested (signal, client shutdown). */
    bool draining() const { return draining_.load(); }

    /** Begin graceful shutdown; idempotent, callable from any thread. */
    void requestDrain();

    /** Wait for the drain to complete and every thread to exit.
     *  Returns immediately if start() never succeeded. */
    void join();

    /** Lifetime request/job/cache accounting as a JSON object (the
     *  body of the "stats" reply). */
    std::string statsJson() const;

    /** Simulations actually executed (cache misses that ran). */
    u64 jobsSimulated() const { return jobs_simulated_.load(); }

  private:
    struct Conn
    {
        int fd = -1;
        std::mutex write_mu;
        ~Conn();
    };

    struct QueuedJob
    {
        std::shared_ptr<Conn> conn;
        JsonValue id;
        JobSpec spec;
        u64 key = 0;
        u64 seq = 0;
        /** FNV-1a of the exact request line, echoed in the reply as
         *  "req" so a retrying client can detect a request mutated in
         *  flight (see protocol.hh). */
        u64 req_hash = 0;
        /** Wall-clock deadline (from enqueue + the job's budget);
         *  epoch = none.  Checked at dequeue and enforced inside the
         *  simulation via SimConfig::deadline. */
        std::chrono::steady_clock::time_point deadline{};
    };

    /** Max-heap order: higher priority first, then submission order. */
    struct JobWorse
    {
        bool
        operator()(const std::shared_ptr<QueuedJob> &a,
                   const std::shared_ptr<QueuedJob> &b) const
        {
            if (a->spec.priority != b->spec.priority)
                return a->spec.priority < b->spec.priority;
            return a->seq > b->seq;
        }
    };

    /** A connection's reader thread; done is set as it exits. */
    struct Reader
    {
        std::atomic<bool> done{false};
        std::thread thread;
    };

    void acceptLoop();
    /** Join the readers whose client hung up, so mapped thread stacks
     *  track open connections (acceptor only). */
    void reapReaders();
    void connLoop(std::shared_ptr<Conn> conn, std::atomic<bool> *done);
    void workerLoop();
    void handleLine(const std::shared_ptr<Conn> &conn,
                    std::string_view line);
    void sendReply(const std::shared_ptr<Conn> &conn,
                   const std::string &body);
    u64 programHashFor(const std::string &workload);

    ServeOptions opts_;
    ResultCache cache_;
    int listen_fd_ = -1;
    int port_ = 0;
    bool started_ = false;
    std::atomic<bool> draining_{false};

    std::thread acceptor_;
    std::vector<std::thread> workers_;
    /** The acceptor's alone until join(); a list, so none moves. */
    std::list<Reader> readers_;

    mutable std::mutex queue_mu_;
    std::condition_variable queue_cv_;   ///< work available / draining
    std::condition_variable drained_cv_; ///< queue empty, workers idle
    std::priority_queue<std::shared_ptr<QueuedJob>,
                        std::vector<std::shared_ptr<QueuedJob>>,
                        JobWorse>
        queue_;
    u64 next_seq_ = 0;
    int active_jobs_ = 0;

    std::mutex prog_mu_;
    std::unordered_map<std::string, u64> prog_hash_;

    std::chrono::steady_clock::time_point start_time_;
    std::atomic<u64> requests_{0};
    std::atomic<u64> bad_requests_{0};
    std::atomic<u64> jobs_simulated_{0};
    std::atomic<u64> jobs_failed_{0};
    std::atomic<u64> jobs_rejected_{0}; ///< drain-timeout failures
    std::atomic<u64> rejected_overload_{0}; ///< queue-full rejections
    std::atomic<u64> deadline_expired_{0};  ///< in queue or mid-run
    std::atomic<u64> busy_us_{0};       ///< summed job wall clock
};

} // namespace dmt

#endif // DMT_SERVE_SERVER_HH
