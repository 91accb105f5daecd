#include "serve/faultnet.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "serve/socket.hh"

namespace dmt
{

namespace
{

constexpr int kPollMs = 100;

} // namespace

FaultNetProxy::FaultNetProxy(const FaultNetOptions &opts)
    : opts_(opts), rng_(opts.seed)
{
}

FaultNetProxy::~FaultNetProxy()
{
    stop();
}

bool
FaultNetProxy::start(std::string *err)
{
    listen_fd_ = listenLoopback(opts_.listen_port, &port_, err);
    if (listen_fd_ < 0)
        return false;
    started_ = true;
    acceptor_ = std::thread(&FaultNetProxy::acceptLoop, this);
    return true;
}

void
FaultNetProxy::stop()
{
    if (!started_)
        return;
    stopping_.store(true);
    if (acceptor_.joinable())
        acceptor_.join();
    {
        std::lock_guard<std::mutex> lk(relays_mu_);
        for (std::thread &t : relays_) {
            if (t.joinable())
                t.join();
        }
        relays_.clear();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    started_ = false;
}

FaultNetProxy::Counters
FaultNetProxy::counters() const
{
    Counters c;
    c.connections = connections_.load();
    c.refused = refused_.load();
    c.chunks = chunks_.load();
    c.garbled = garbled_.load();
    c.torn = torn_.load();
    c.dropped = dropped_.load();
    c.stalled = stalled_.load();
    return c;
}

bool
FaultNetProxy::drawRefuse()
{
    std::lock_guard<std::mutex> lk(rng_mu_);
    return rng_.chance(opts_.rate);
}

FaultNetProxy::Decision
FaultNetProxy::drawChunkFault(size_t len)
{
    Decision d;
    std::lock_guard<std::mutex> lk(rng_mu_);
    if (!rng_.chance(opts_.rate))
        return d;
    switch (rng_.below(4)) {
      case 0:
        d.fault = Fault::Garble;
        d.garble_n = static_cast<int>(1 + rng_.below(8));
        for (int i = 0; i < d.garble_n; ++i) {
            d.garble_off[i] = static_cast<size_t>(rng_.below(len));
            d.garble_xor[i] =
                static_cast<unsigned char>(1 + rng_.below(255));
        }
        break;
      case 1:
        d.fault = Fault::Tear;
        d.tear_keep = static_cast<size_t>(rng_.below(len));
        break;
      case 2:
        d.fault = Fault::Drop;
        break;
      default:
        d.fault = Fault::Stall;
        break;
    }
    return d;
}

void
FaultNetProxy::acceptLoop()
{
    while (!stopping_.load()) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int n = ::poll(&pfd, 1, kPollMs);
        if (n <= 0)
            continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        connections_.fetch_add(1);
        if (drawRefuse()) {
            // The client sees ECONNRESET/EOF before any reply — the
            // moral equivalent of a refused connection.
            refused_.fetch_add(1);
            ::close(fd);
            continue;
        }
        std::lock_guard<std::mutex> lk(relays_mu_);
        relays_.emplace_back(&FaultNetProxy::relayLoop, this, fd);
    }
}

void
FaultNetProxy::relayLoop(int client_fd)
{
    const int up_fd = connectLoopback(opts_.upstream_port);
    if (up_fd < 0) {
        ::close(client_fd);
        return;
    }
    char chunk[4096];
    bool open = true;
    while (open && !stopping_.load()) {
        pollfd pfds[2] = {{client_fd, POLLIN, 0}, {up_fd, POLLIN, 0}};
        const int n = ::poll(pfds, 2, kPollMs);
        if (n < 0 && errno != EINTR)
            break;
        if (n <= 0)
            continue;
        for (int i = 0; i < 2 && open; ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const ssize_t r =
                ::recv(pfds[i].fd, chunk, sizeof(chunk), 0);
            if (r <= 0) {
                open = false;
                break;
            }
            size_t len = static_cast<size_t>(r);
            const int dst = pfds[i].fd == client_fd ? up_fd : client_fd;
            chunks_.fetch_add(1);
            const Decision d = drawChunkFault(len);
            switch (d.fault) {
              case Fault::Garble:
                for (int g = 0; g < d.garble_n; ++g)
                    chunk[d.garble_off[g]] = static_cast<char>(
                        static_cast<unsigned char>(
                            chunk[d.garble_off[g]])
                        ^ d.garble_xor[g]);
                garbled_.fetch_add(1);
                break;
              case Fault::Tear:
                torn_.fetch_add(1);
                if (d.tear_keep > 0)
                    sendAll(dst, chunk, d.tear_keep);
                open = false;
                continue;
              case Fault::Drop:
                dropped_.fetch_add(1);
                open = false;
                continue;
              case Fault::Stall:
                stalled_.fetch_add(1);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(opts_.stall_ms));
                break;
              case Fault::None:
                break;
            }
            if (!sendAll(dst, chunk, len))
                open = false;
        }
    }
    ::close(client_fd);
    ::close(up_fd);
}

} // namespace dmt
