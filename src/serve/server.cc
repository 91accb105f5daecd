#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.hh"
#include "common/strutil.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "sim/checkpoint.hh"
#include "workloads/workloads.hh"

namespace dmt
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Reader poll period: bounds how long a drain waits on idle
 *  connections and how often readers re-check the draining flag. */
constexpr int kPollMs = 100;

/** A request line longer than this is a broken or hostile client. */
constexpr size_t kMaxLine = 1u << 20;

bool
sendAll(int fd, const char *data, size_t n)
{
    while (n > 0) {
        // MSG_NOSIGNAL: a client that hung up must produce an error
        // return, not a SIGPIPE that kills the daemon.
        const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

} // namespace

Server::Conn::~Conn()
{
    if (fd >= 0)
        ::close(fd);
}

Server::Server(const ServeOptions &opts)
    : opts_(opts),
      cache_(static_cast<size_t>(opts.cache_entries), opts.cache_dir)
{
    if (opts_.pool <= 0)
        opts_.pool = hardwareJobs();
}

Server::~Server()
{
    requestDrain();
    join();
}

bool
Server::start(std::string *err)
{
    DMT_ASSERT(!started_, "Server::start called twice");

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        if (err)
            *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<u16>(opts_.port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0
        || ::listen(listen_fd_, 64) < 0) {
        if (err)
            *err = std::string("bind/listen 127.0.0.1:")
                + std::to_string(opts_.port) + ": "
                + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    start_time_ = Clock::now();
    started_ = true;
    acceptor_ = std::thread(&Server::acceptLoop, this);
    workers_.reserve(static_cast<size_t>(opts_.pool));
    for (int i = 0; i < opts_.pool; ++i)
        workers_.emplace_back(&Server::workerLoop, this);
    return true;
}

void
Server::acceptLoop()
{
    while (!draining_.load()) {
        reapReaders();
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int n = ::poll(&pfd, 1, kPollMs);
        if (n <= 0)
            continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        Reader &rd = readers_.emplace_back();
        rd.thread =
            std::thread(&Server::connLoop, this, std::move(conn), &rd.done);
    }
}

void
Server::reapReaders()
{
    readers_.remove_if([](Reader &rd) {
        if (rd.done.load())
            rd.thread.join();
        return !rd.thread.joinable();
    });
}

void
Server::connLoop(std::shared_ptr<Conn> conn, std::atomic<bool> *done)
{
    std::string buf;
    char chunk[4096];
    while (!draining_.load()) {
        pollfd pfd{conn->fd, POLLIN, 0};
        const int n = ::poll(&pfd, 1, kPollMs);
        if (n < 0 && errno != EINTR)
            break;
        if (n <= 0)
            continue;
        const ssize_t r = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (r == 0)
            break; // client hung up
        if (r < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        buf.append(chunk, static_cast<size_t>(r));
        size_t start = 0;
        for (;;) {
            const size_t nl = buf.find('\n', start);
            if (nl == std::string::npos)
                break;
            std::string_view line(buf.data() + start, nl - start);
            if (!line.empty() && line.back() == '\r')
                line.remove_suffix(1);
            if (!line.empty())
                handleLine(conn, line);
            start = nl + 1;
        }
        buf.erase(0, start);
        if (buf.size() > kMaxLine) {
            sendReply(conn,
                      errorReply(JsonValue{}, "request line too long",
                                 errkind::kBadRequest));
            break;
        }
    }
    done->store(true);
}

void
Server::handleLine(const std::shared_ptr<Conn> &conn,
                   std::string_view line)
{
    requests_.fetch_add(1);
    // Echoed on every reply: proof the server answered *these* bytes,
    // not a corrupted-but-parseable mutation of them.
    const u64 req_hash = fnv1aHash(line);
    Request req;
    std::string err;
    if (!parseRequest(line, &req, &err, opts_.default_budget)) {
        bad_requests_.fetch_add(1);
        sendReply(conn,
                  errorReply(req.id, err, errkind::kBadRequest,
                             req_hash));
        return;
    }

    switch (req.op) {
      case Request::Op::Ping:
        sendReply(conn, pongReply(req.id, req_hash));
        return;
      case Request::Op::Stats: {
        JsonWriter w;
        w.beginObject();
        w.key("id");
        req.id.writeTo(w);
        w.key("ok").value(true);
        w.key("req").value(std::string_view(hashHex(req_hash)));
        w.key("stats").rawValue(statsJson());
        w.endObject();
        sendReply(conn, w.str());
        return;
      }
      case Request::Op::Shutdown: {
        JsonWriter w;
        w.beginObject();
        w.key("id");
        req.id.writeTo(w);
        w.key("ok").value(true);
        w.key("req").value(std::string_view(hashHex(req_hash)));
        w.key("draining").value(true);
        w.endObject();
        // Drain before replying: a client holding the reply must find
        // the daemon already draining.
        requestDrain();
        sendReply(conn, w.str());
        return;
      }
      case Request::Op::Run:
        break;
    }

    auto job = std::make_shared<QueuedJob>();
    job->conn = conn;
    job->id = req.id;
    job->req_hash = req_hash;
    job->spec = std::move(req.job);
    job->key = resultCacheKey(job->spec.cfg, job->spec.workload,
                              programHashFor(job->spec.workload),
                              job->spec.sample);
    // The deadline clock starts at enqueue: queueing delay counts
    // against the budget, so an overloaded daemon sheds stale work
    // instead of simulating answers nobody is waiting for anymore.
    const double budget_s = job->spec.deadline_ms > 0
        ? static_cast<double>(job->spec.deadline_ms) / 1000.0
        : opts_.deadline_s;
    if (budget_s > 0) {
        job->deadline = Clock::now()
            + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(budget_s));
    }
    {
        std::unique_lock<std::mutex> lk(queue_mu_);
        if (opts_.queue_max > 0 && queue_.size() >= opts_.queue_max) {
            lk.unlock(); // reply outside the lock
            rejected_overload_.fetch_add(1);
            sendReply(job->conn,
                      errorReply(job->id,
                                 strprintf("overloaded: %llu jobs "
                                           "queued (DMT_SERVE_QUEUE)",
                                           static_cast<unsigned long long>(
                                               opts_.queue_max)),
                                 errkind::kOverloaded, req_hash));
            return;
        }
        job->seq = next_seq_++;
        queue_.push(std::move(job));
    }
    queue_cv_.notify_one();
}

u64
Server::programHashFor(const std::string &workload)
{
    std::lock_guard<std::mutex> lk(prog_mu_);
    auto it = prog_hash_.find(workload);
    if (it != prog_hash_.end())
        return it->second;
    // Workload names were suite-checked at parse time, so build cannot
    // fatal().  Build once per daemon lifetime per workload.
    const u64 h = Checkpoint::programHash(buildWorkload(workload));
    prog_hash_[workload] = h;
    return h;
}

void
Server::workerLoop()
{
    for (;;) {
        std::shared_ptr<QueuedJob> job;
        {
            std::unique_lock<std::mutex> lk(queue_mu_);
            queue_cv_.wait(lk, [&] {
                return !queue_.empty() || draining_.load();
            });
            if (queue_.empty()) {
                if (draining_.load())
                    return;
                continue;
            }
            job = queue_.top();
            queue_.pop();
            ++active_jobs_;
        }

        const auto t0 = Clock::now();
        const bool has_deadline =
            job->deadline.time_since_epoch().count() != 0;
        if (has_deadline && t0 >= job->deadline) {
            // Expired while queued: shed the job without simulating.
            // The cache stays untouched, so a retry with a fresh
            // budget computes (or disk-hits) normally.
            deadline_expired_.fetch_add(1);
            const double waited =
                std::chrono::duration<double>(t0 - job->deadline).count();
            sendReply(job->conn,
                      errorReply(job->id,
                                 strprintf("deadline expired %.1fs ago "
                                           "while queued",
                                           waited),
                                 errkind::kDeadline, job->req_hash));
            std::lock_guard<std::mutex> lk(queue_mu_);
            --active_jobs_;
            if (queue_.empty() && active_jobs_ == 0)
                drained_cv_.notify_all();
            continue;
        }
        if (has_deadline)
            job->spec.cfg.deadline = job->deadline;
        const ResultCache::Outcome out =
            cache_.getOrCompute(job->key, [&]() -> ComputedResult {
                ComputedResult res;
                const RunResult r = runWorkloadJob(
                    job->spec.cfg, job->spec.workload,
                    job->spec.max_retired, job->spec.sample);
                res.json = r.jsonString();
                res.hash = fnv1aHash(res.json);
                res.ok = true;
                return res;
            });
        busy_us_.fetch_add(static_cast<u64>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count()));
        if (!out.cached)
            jobs_simulated_.fetch_add(1);

        if (out.ok) {
            sendReply(job->conn,
                      okRunReply(job->id, out.json, job->key, out.hash,
                                 out.cached, job->req_hash));
        } else if (out.error.rfind("deadline expired", 0) == 0) {
            deadline_expired_.fetch_add(1);
            sendReply(job->conn,
                      errorReply(job->id, out.error, errkind::kDeadline,
                                 job->req_hash));
        } else {
            jobs_failed_.fetch_add(1);
            sendReply(job->conn,
                      errorReply(job->id, out.error, errkind::kSimError,
                                 job->req_hash));
        }

        {
            std::lock_guard<std::mutex> lk(queue_mu_);
            --active_jobs_;
            if (queue_.empty() && active_jobs_ == 0)
                drained_cv_.notify_all();
        }
    }
}

void
Server::sendReply(const std::shared_ptr<Conn> &conn,
                  const std::string &body)
{
    const std::string line = body + "\n";
    std::lock_guard<std::mutex> lk(conn->write_mu);
    // A failed send means the client is gone; the result (if any) is
    // cached regardless, so the work is not lost.
    sendAll(conn->fd, line.data(), line.size());
}

void
Server::requestDrain()
{
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true))
        return;
    queue_cv_.notify_all();
}

void
Server::join()
{
    if (!started_)
        return;
    if (acceptor_.joinable())
        acceptor_.join();
    // The acceptor is gone, so readers_ is this thread's alone.
    for (Reader &rd : readers_)
        rd.thread.join();
    readers_.clear();
    // Give queued jobs drain_s to finish, then fail the remainder
    // with a structured reply so no client blocks forever.  Replies
    // go out after dropping the queue lock: a worker mid-reply holds
    // the connection write lock and takes the queue lock next.
    std::vector<std::shared_ptr<QueuedJob>> dropped;
    {
        std::unique_lock<std::mutex> lk(queue_mu_);
        const bool drained = drained_cv_.wait_for(
            lk, std::chrono::duration<double>(opts_.drain_s),
            [&] { return queue_.empty() && active_jobs_ == 0; });
        if (!drained) {
            while (!queue_.empty()) {
                dropped.push_back(queue_.top());
                queue_.pop();
            }
        }
    }
    for (const std::shared_ptr<QueuedJob> &job : dropped) {
        jobs_rejected_.fetch_add(1);
        sendReply(job->conn,
                  errorReply(job->id,
                             "server draining: job dropped after drain "
                             "timeout",
                             errkind::kDraining, job->req_hash));
    }
    queue_cv_.notify_all();
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
    workers_.clear();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    started_ = false;
}

std::string
Server::statsJson() const
{
    size_t depth = 0;
    int active = 0;
    {
        std::lock_guard<std::mutex> lk(queue_mu_);
        depth = queue_.size();
        active = active_jobs_;
    }
    const ResultCache::Counters cc = cache_.counters();
    const CheckpointCacheCounters kc = checkpointCacheCounters();

    JsonWriter w;
    w.beginObject();
    w.key("pool_width").value(opts_.pool);
    w.key("draining").value(draining_.load());
    w.key("queue_depth").value(static_cast<u64>(depth));
    w.key("active_jobs").value(active);
    w.key("requests").value(requests_.load());
    w.key("bad_requests").value(bad_requests_.load());
    w.key("jobs_simulated").value(jobs_simulated_.load());
    w.key("jobs_failed").value(jobs_failed_.load());
    w.key("jobs_rejected").value(jobs_rejected_.load());
    w.key("rejected_overload").value(rejected_overload_.load());
    w.key("deadline_expired").value(deadline_expired_.load());
    w.key("busy_s").value(static_cast<double>(busy_us_.load()) / 1e6);
    w.key("wall_s").value(
        std::chrono::duration<double>(Clock::now() - start_time_)
            .count());
    w.key("cache");
    w.beginObject();
    w.key("capacity").value(cc.capacity);
    w.key("entries").value(cc.entries);
    w.key("hits").value(cc.hits);
    w.key("disk_hits").value(cc.disk_hits);
    w.key("misses").value(cc.misses);
    w.key("joins").value(cc.joins);
    w.key("evictions").value(cc.evictions);
    w.key("spills").value(cc.spills);
    w.key("restore_rejected").value(cc.restore_rejected);
    w.key("hit_rate").value(cc.hitRate());
    w.endObject();
    w.key("ckpt_cache");
    w.beginObject();
    w.key("mem_hits").value(kc.mem_hits);
    w.key("disk_hits").value(kc.disk_hits);
    w.key("builds").value(kc.builds);
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace dmt
