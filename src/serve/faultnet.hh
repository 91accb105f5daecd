/**
 * @file
 * A seeded in-process TCP fault injector for the simulation service.
 *
 * FaultNetProxy listens on 127.0.0.1 and relays byte streams to an
 * upstream port (a dmt_served daemon), flipping a seeded coin on every
 * accepted connection and every forwarded chunk.  When it comes up
 * tails the proxy injects one of the failure modes a real network (or
 * a dying peer) produces:
 *
 *   refuse      close a just-accepted connection before any bytes flow
 *   garble      XOR a few random bytes of the chunk, then forward it
 *   tear        forward a random prefix of the chunk, then drop both
 *               sides — a mid-line (mid-reply) disconnect
 *   drop        disconnect both sides without forwarding anything
 *   stall       sit on the chunk for stall_ms before forwarding it
 *
 * Decisions come from one splitmix64 stream (DMT_FAULTNET_SEED), so a
 * single-connection exchange replays identically; with concurrent
 * connections the stream is shared and ordered by arrival.
 *
 * This is the adversary the resilience layers are tested against:
 * ServeClient::requestWithRetry() must converge to byte-identical
 * results through any storm the proxy produces, and the daemon behind
 * it must never exit.  Knobs: DMT_FAULTNET (route dmt_client through a
 * proxy), DMT_FAULTNET_RATE (per-event fault probability),
 * DMT_FAULTNET_SEED, DMT_FAULTNET_STALL_MS.
 */

#ifndef DMT_SERVE_FAULTNET_HH
#define DMT_SERVE_FAULTNET_HH

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace dmt
{

/** Proxy configuration (dmt_client fills it from the DMT_FAULTNET_*
 *  knobs, cli/env.hh). */
struct FaultNetOptions
{
    /** Proxy listening port on 127.0.0.1; 0 picks an ephemeral port
     *  (reported by FaultNetProxy::port()). */
    int listen_port = 0;
    /** The real daemon's port; every accepted connection relays to
     *  127.0.0.1:upstream_port. */
    int upstream_port = 0;
    /** Per-event fault probability — drawn once per accepted
     *  connection (refusal) and once per forwarded chunk. */
    double rate = 0.05;
    /** Seed for the shared fault-decision stream. */
    u64 seed = 1998;
    /** How long a "stall" fault sits on a chunk. */
    u64 stall_ms = 100;
};

/** The fault-injecting relay.  Construct, start(), eventually stop(). */
class FaultNetProxy
{
  public:
    /** Lifetime fault accounting (all monotonic). */
    struct Counters
    {
        u64 connections = 0; ///< accepted (refused included)
        u64 refused = 0;
        u64 chunks = 0;      ///< chunks seen, both directions
        u64 garbled = 0;
        u64 torn = 0;
        u64 dropped = 0;
        u64 stalled = 0;

        u64
        faults() const
        {
            return refused + garbled + torn + dropped + stalled;
        }
    };

    explicit FaultNetProxy(const FaultNetOptions &opts);
    ~FaultNetProxy();
    FaultNetProxy(const FaultNetProxy &) = delete;
    FaultNetProxy &operator=(const FaultNetProxy &) = delete;

    /** Bind 127.0.0.1 and spawn the acceptor.
     *  @retval false with @p err set when socket setup fails. */
    bool start(std::string *err);

    /** The bound port (after start()). */
    int port() const { return port_; }

    /** Stop accepting, sever every relay, join all threads.
     *  Idempotent; also run by the destructor. */
    void stop();

    Counters counters() const;

  private:
    enum class Fault { None, Garble, Tear, Drop, Stall };

    /** One seeded decision for a chunk of @p len bytes; fault
     *  parameters (garble positions/masks, tear length) are drawn
     *  under the same lock so the stream stays reproducible. */
    struct Decision
    {
        Fault fault = Fault::None;
        size_t tear_keep = 0;
        int garble_n = 0;
        size_t garble_off[8] = {};
        unsigned char garble_xor[8] = {};
    };
    Decision drawChunkFault(size_t len);
    bool drawRefuse();
    void acceptLoop();
    void relayLoop(int client_fd);

    FaultNetOptions opts_;
    int listen_fd_ = -1;
    int port_ = 0;
    bool started_ = false;
    std::atomic<bool> stopping_{false};
    std::thread acceptor_;
    std::mutex relays_mu_;
    std::vector<std::thread> relays_;

    std::mutex rng_mu_;
    Rng rng_;

    std::atomic<u64> connections_{0};
    std::atomic<u64> refused_{0};
    std::atomic<u64> chunks_{0};
    std::atomic<u64> garbled_{0};
    std::atomic<u64> torn_{0};
    std::atomic<u64> dropped_{0};
    std::atomic<u64> stalled_{0};
};

} // namespace dmt

#endif // DMT_SERVE_FAULTNET_HH
