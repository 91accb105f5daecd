#include "serve/client.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/rng.hh"
#include "common/strutil.hh"
#include "exp/report.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"

namespace dmt
{

ServeClient::~ServeClient()
{
    close();
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    rxbuf_.clear();
}

bool
ServeClient::connect(int port, std::string *err, double retry_s)
{
    close();
    const auto deadline = std::chrono::steady_clock::now()
        + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(retry_s));
    for (;;) {
        fd_ = connectLoopback(port);
        if (fd_ >= 0)
            return true;
        if (std::chrono::steady_clock::now() >= deadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (err)
        *err = "connect 127.0.0.1:" + std::to_string(port) + ": "
            + std::strerror(errno);
    return false;
}

bool
ServeClient::sendLine(const std::string &line, std::string *err)
{
    if (fd_ < 0) {
        if (err)
            *err = "not connected";
        return false;
    }
    const std::string out = line + "\n";
    if (!sendAll(fd_, out.data(), out.size())) {
        if (err)
            *err = std::string("send: ") + std::strerror(errno);
        return false;
    }
    return true;
}

bool
ServeClient::recvLine(std::string *line, std::string *err)
{
    timed_out_ = false;
    if (fd_ < 0) {
        if (err)
            *err = "not connected";
        return false;
    }
    const auto deadline = std::chrono::steady_clock::now()
        + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_s_));
    for (;;) {
        const size_t nl = rxbuf_.find('\n');
        if (nl != std::string::npos) {
            *line = rxbuf_.substr(0, nl);
            rxbuf_.erase(0, nl + 1);
            return true;
        }
        if (timeout_s_ > 0) {
            const auto left = deadline - std::chrono::steady_clock::now();
            const auto left_ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    left)
                    .count();
            pollfd pfd{fd_, POLLIN, 0};
            const int n = ::poll(
                &pfd, 1,
                static_cast<int>(std::max<long long>(0, left_ms)));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                if (err)
                    *err = std::string("poll: ") + std::strerror(errno);
                return false;
            }
            if (n == 0) {
                timed_out_ = true;
                if (err)
                    *err = strprintf("timeout: no reply within %.3fs",
                                     timeout_s_);
                return false;
            }
        }
        char chunk[4096];
        const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (r == 0) {
            if (err)
                *err = "server closed the connection";
            return false;
        }
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = std::string("recv: ") + std::strerror(errno);
            return false;
        }
        rxbuf_.append(chunk, static_cast<size_t>(r));
    }
}

bool
ServeClient::recvReply(JsonValue *reply, std::string *err)
{
    if (!recvLine(&last_line_, err))
        return false;
    std::string perr;
    if (!JsonValue::parse(last_line_, reply, &perr)) {
        if (err)
            *err = "bad reply JSON: " + perr;
        return false;
    }
    return true;
}

bool
ServeClient::request(const std::string &line, JsonValue *reply,
                     std::string *err)
{
    return sendLine(line, err) && recvReply(reply, err);
}

namespace
{

/** Is @p reply a definitive answer to request @p id?  Sets
 *  @p retry_why when not (wrong/missing id = corrupted or stale
 *  transport; a wrong/missing "req" echo = the *request* was mutated
 *  in flight, so whatever the server answered is not our question;
 *  overloaded/draining = try again later; a run reply whose spliced
 *  result bytes do not match result_hash = torn reply). */
bool
replyIsDefinitive(const JsonValue &reply, std::string_view raw, i64 id,
                  const std::string &req_echo, std::string *retry_why)
{
    const JsonValue *rid = reply.find("id");
    if (!rid || rid->type() != JsonValue::Type::Number
        || static_cast<i64>(rid->asNumber()) != id) {
        *retry_why = "reply id mismatch (corrupted or stale reply)";
        return false;
    }
    // The id alone cannot catch a request garbled into *different but
    // valid* JSON — the server would faithfully answer the mutated job
    // under our id.  The request-integrity echo can: the server hashes
    // the exact line it served, and we hashed the exact line we sent.
    const JsonValue *req = reply.find("req");
    if (!req || req->type() != JsonValue::Type::String
        || req->asString() != req_echo) {
        *retry_why =
            "request integrity echo mismatch (request corrupted in "
            "flight)";
        return false;
    }
    const std::string kind = replyErrorKind(reply);
    if (kind == errkind::kOverloaded || kind == errkind::kDraining) {
        *retry_why = "server " + kind;
        return false;
    }
    const JsonValue *hash = reply.find("result_hash");
    if (hash && hash->type() == JsonValue::Type::String) {
        std::string result;
        if (!extractRawResult(raw, &result)
            || hashHex(fnv1aHash(result)) != hash->asString()) {
            *retry_why = "result bytes do not match result_hash";
            return false;
        }
    }
    return true;
}

} // namespace

bool
ServeClient::requestWithRetry(int port, const std::string &line, i64 id,
                              const RetryPolicy &pol, JsonValue *reply,
                              std::string *err)
{
    Rng rng(pol.seed);
    const std::string req_echo = hashHex(fnv1aHash(line));
    std::string last_err = "no attempts made";
    const int attempts = std::max(1, pol.attempts);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            // Exponential backoff, jittered to [50%, 100%] of the
            // nominal delay so synchronized clients spread out.
            double delay = pol.base_s;
            for (int i = 1; i < attempt && delay < pol.max_s; ++i)
                delay *= 2.0;
            delay = std::min(delay, pol.max_s);
            delay *= 0.5 + 0.5 * (static_cast<double>(rng.below(1024))
                                  / 1024.0);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(delay));
        }
        std::string aerr;
        if (!connected() && !connect(port, &aerr, 0.0)) {
            last_err = aerr;
            continue;
        }
        setTimeout(pol.op_timeout_s);
        if (!sendLine(line, &aerr)) {
            last_err = aerr;
            close();
            continue;
        }
        if (!recvReply(reply, &aerr)) {
            last_err = aerr;
            // After a timeout the reply may still arrive; a fresh
            // connection is the only way to keep id matching sound.
            close();
            continue;
        }
        std::string why;
        if (!replyIsDefinitive(*reply, last_line_, id, req_echo,
                               &why)) {
            last_err = why;
            if (why.rfind("server ", 0) != 0)
                close(); // corrupted transport, not a polite error
            continue;
        }
        return true;
    }
    if (err)
        *err = strprintf("giving up after %d attempts: %s", attempts,
                         last_err.c_str());
    return false;
}

} // namespace dmt
