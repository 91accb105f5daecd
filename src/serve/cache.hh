/**
 * @file
 * Content-addressed result cache with single-flight deduplication.
 *
 * Identity: a result is addressed by FNV-1a over the model identity
 * (a build-time digest of the simulator's result-determining sources),
 * the canonical machine configuration (budget included), the canonical
 * workload name and the canonical sample spec — exactly the inputs the
 * canonical RunResult bytes depend on.  Because runs are
 * bit-reproducible (DESIGN.md section 10), a cache hit *is* the
 * simulation: the stored canonical RunResult JSON is byte-identical to
 * what re-running this build would produce.
 *
 * Single-flight: when N requests for the same key arrive while none
 * is cached, exactly one computes; the rest block on the in-flight
 * entry and receive the same bytes.  Errors (SimError) propagate to
 * every waiter but are never cached — a later identical request
 * retries.
 *
 * Eviction is LRU over a bounded entry count (DMT_SERVE_CACHE); the
 * values are strings, so memory is roughly entries x canonical-JSON
 * size (a few KB each).
 *
 * Durable tier: with a spill directory (DMT_SERVE_CACHE_DIR) every
 * computed entry is also written to disk — atomically, temp-file +
 * rename, with a magic header and an FNV-1a integrity footer — at
 * compute time, not at shutdown, so a kill -9'd daemon loses nothing
 * already answered.  The files use the checksummed record framing of
 * common/record.hh, whose only store they are.  A memory miss probes
 * the directory before simulating; torn, truncated or corrupted files
 * are rejected (and deleted) at load time, and the entry is simply
 * recomputed and rewritten.  Disk entries are content-addressed by the
 * same key as memory entries and are not LRU-bounded: the directory is
 * the durable record, and the one durable tier in the simulator.  It
 * serves one build at a time: entries live under
 * <dir>/<kModelIdentity>/, and opening the directory removes what
 * other builds left in it.
 */

#ifndef DMT_SERVE_CACHE_HH
#define DMT_SERVE_CACHE_HH

#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/types.hh"

namespace dmt
{

struct SampleParams;
struct SimConfig;

/**
 * The cache key for (model identity, machine cfg incl. budget,
 * workload, sample spec).  The model identity digests every source a
 * result or a workload image comes from, so a rebuilt simulator never
 * answers from an older build's entries.  The RunResult embeds
 * @p workload (the canonical name), so two gen: specs that build one
 * image still get their own cells.
 */
u64 resultCacheKey(const SimConfig &cfg, const std::string &workload,
                   const SampleParams &sample);

/** What a compute function returns / a cache entry stores. */
struct ComputedResult
{
    bool ok = false;
    std::string json;     ///< canonical RunResult document
    u64 hash = 0;         ///< fnv1aHash(json)
    std::string error;    ///< SimError message when !ok
};

/** Bounded LRU result cache with single-flight dedup and an optional
 *  durable on-disk tier. */
class ResultCache
{
  public:
    /**
     * @param max_entries 0 disables in-memory storage (dedup still
     *        applies).
     * @param dir Spill directory for the durable tier (must already
     *        exist); empty keeps the cache memory-only.  Entries go to
     *        its <kModelIdentity> subdirectory, and other builds'
     *        entries in it are removed.
     */
    explicit ResultCache(size_t max_entries, const std::string &dir = "");

    struct Outcome
    {
        bool ok = false;
        /** Served without running a simulation in this request —
         *  either a stored entry (hit) or a single-flight join. */
        bool cached = false;
        bool joined = false; ///< waited on another request's compute
        std::string json;
        u64 hash = 0;
        std::string error;
    };

    /**
     * Return the entry for @p key, computing it with @p compute if
     * absent.  @p compute runs outside the cache lock; a SimError it
     * throws is captured into a failed Outcome (and delivered to any
     * waiters joined on this flight).
     */
    Outcome getOrCompute(u64 key,
                         const std::function<ComputedResult()> &compute);

    struct Counters
    {
        u64 hits = 0;       ///< served from memory storage
        u64 misses = 0;     ///< computed by this request
        u64 joins = 0;      ///< served by another request's compute
        u64 evictions = 0;
        u64 entries = 0;    ///< current stored entries
        u64 capacity = 0;
        u64 disk_hits = 0;  ///< served from the durable tier
        u64 spills = 0;     ///< entries persisted to the durable tier
        /** Durable-tier files rejected at load time (torn write, bad
         *  magic, key mismatch, corrupt payload) and deleted. */
        u64 restore_rejected = 0;

        double
        hitRate() const
        {
            const u64 lookups = hits + disk_hits + misses + joins;
            return lookups > 0
                ? static_cast<double>(hits + disk_hits + joins)
                      / static_cast<double>(lookups)
                : 0.0;
        }
    };
    Counters counters() const;

    /** The directory this build's entries live in ("" when the
     *  durable tier is off). */
    const std::string &dir() const { return dir_; }

  private:
    struct Flight
    {
        bool done = false;
        ComputedResult res;
    };

    using LruList = std::list<std::pair<u64, ComputedResult>>;

    /** Durable-tier probe for @p key; called without @p mu_ held.
     *  @retval false on miss or rejection (sets @p rejected). */
    bool loadDisk(u64 key, ComputedResult *out, bool *rejected) const;
    /** Persist @p res for @p key (atomic temp+rename); returns
     *  success.  Called without @p mu_ held. */
    bool spillDisk(u64 key, const ComputedResult &res) const;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    size_t max_entries_;
    std::string dir_;
    LruList lru_; ///< front = most recently used
    std::unordered_map<u64, LruList::iterator> map_;
    std::unordered_map<u64, std::shared_ptr<Flight>> inflight_;
    Counters ctr_;
};

} // namespace dmt

#endif // DMT_SERVE_CACHE_HH
