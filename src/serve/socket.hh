/**
 * @file
 * The loopback TCP calls that the daemon, its client and the network
 * fault proxy share: listen on 127.0.0.1, connect to it, and send a
 * whole buffer.
 */

#ifndef DMT_SERVE_SOCKET_HH
#define DMT_SERVE_SOCKET_HH

#include <cstddef>
#include <string>

namespace dmt
{

/**
 * Listen on 127.0.0.1:@p port (0 picks an ephemeral port) with
 * SO_REUSEADDR.  Returns the socket and sets @p bound_port to the port
 * it holds; on failure returns -1 and sets @p err (when non-null).
 */
int listenLoopback(int port, int *bound_port, std::string *err);

/** Connect to 127.0.0.1:@p port; -1 on failure, with errno set. */
int connectLoopback(int port);

/**
 * Send all @p n bytes of @p data, retrying on EINTR.  A peer that hung
 * up yields false (errno set), not a SIGPIPE that kills the process.
 */
bool sendAll(int fd, const char *data, size_t n);

} // namespace dmt

#endif // DMT_SERVE_SOCKET_HH
