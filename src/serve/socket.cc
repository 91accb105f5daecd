#include "serve/socket.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace dmt
{

namespace
{

sockaddr_in
loopback(int port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    return addr;
}

} // namespace

int
listenLoopback(int port, int *bound_port, std::string *err)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err)
            *err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = loopback(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) < 0
        || ::listen(fd, 64) < 0) {
        if (err)
            *err = "bind/listen 127.0.0.1:" + std::to_string(port) + ": "
                + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    *bound_port = ntohs(addr.sin_port);
    return fd;
}

int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    const sockaddr_in addr = loopback(port);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const char *data, size_t n)
{
    while (n > 0) {
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

} // namespace dmt
