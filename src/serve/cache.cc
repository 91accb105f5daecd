#include "serve/cache.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/log.hh"
#include "common/record.hh"
#include "exp/report.hh"
#include "exp/sampled.hh"
#include "serve/model_identity.hh" // generated: src/model_identity.cmake
#include "uarch/config.hh"

namespace dmt
{

namespace
{

/** Durable-entry format version; a change rejects (and rewrites) every
 *  older file rather than misreading it. */
constexpr char kResMagic[8] = {'D', 'M', 'T', 'R', 'E', 'S', '0', '1'};

std::string
entryPath(const std::string &dir, u64 key)
{
    return dir + "/" + hashHex(key) + ".dmtres";
}

/** True for a subdirectory name that a build's identity could have. */
bool
isIdentity(const std::string &name)
{
    return name.size() == sizeof(kModelIdentity) - 1
        && std::all_of(name.begin(), name.end(), [](unsigned char c) {
               return std::isxdigit(c) != 0;
           });
}

/**
 * Open @p root for this build alone: entries live in its
 * <kModelIdentity> subdirectory, and what another build left there (an
 * identity subdirectory, or an entry from before the subdirectories)
 * is removed, since no key of this build can name it.
 */
std::string
openBuildDir(const std::string &root)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    for (const fs::directory_entry &e : fs::directory_iterator(root, ec)) {
        const fs::path &p = e.path();
        const std::string name = p.filename().string();
        std::error_code ec2;
        const bool other_build = e.is_directory(ec2)
            ? name != kModelIdentity && isIdentity(name)
            : p.extension() == ".dmtres";
        if (other_build)
            fs::remove_all(p, ec2);
    }
    const std::string dir = root + "/" + kModelIdentity;
    fs::create_directories(dir, ec);
    return dir;
}

} // namespace

u64
resultCacheKey(const SimConfig &cfg, const std::string &workload,
               const SampleParams &sample)
{
    u64 h = fnv1aHash(kModelIdentity, canonicalHash(cfg));
    h = fnv1aHash("|", h);
    h = fnv1aHash(workload, h);
    h = fnv1aHash("|", h);
    h = fnv1aHash(sample.canonicalSpec(), h);
    return h;
}

ResultCache::ResultCache(size_t max_entries, const std::string &dir)
    : max_entries_(max_entries),
      dir_(dir.empty() ? dir : openBuildDir(dir))
{
    ctr_.capacity = max_entries;
}

bool
ResultCache::spillDisk(u64 key, const ComputedResult &res) const
{
    return writeRecord(entryPath(dir_, key), kResMagic, key, res.json);
}

bool
ResultCache::loadDisk(u64 key, ComputedResult *out, bool *rejected) const
{
    *rejected = false;
    const std::string path = entryPath(dir_, key);
    std::string payload, why;
    switch (readRecord(path, kResMagic, key, &payload, &why)) {
      case RecordRead::Missing:
        return false; // plain miss: nothing durable for this key
      case RecordRead::Rejected:
        // Every rejection deletes the file: the entry will be
        // recomputed and rewritten, so a corrupt file can never wedge
        // its key.
        warn("result cache: rejecting %s (%s)", path.c_str(),
             why.c_str());
        std::remove(path.c_str());
        *rejected = true;
        return false;
      case RecordRead::Ok:
        break;
    }
    out->ok = true;
    out->hash = fnv1aHash(payload);
    out->json = std::move(payload);
    out->error.clear();
    return true;
}

ResultCache::Outcome
ResultCache::getOrCompute(u64 key,
                          const std::function<ComputedResult()> &compute)
{
    std::unique_lock<std::mutex> lk(mu_);
    std::shared_ptr<Flight> flight;
    for (;;) {
        auto it = map_.find(key);
        if (it != map_.end()) {
            // Promote to most-recent and serve the stored bytes.
            lru_.splice(lru_.begin(), lru_, it->second);
            ++ctr_.hits;
            const ComputedResult &res = it->second->second;
            return Outcome{true, true, false, res.json, res.hash, ""};
        }
        auto fit = inflight_.find(key);
        if (fit == inflight_.end())
            break;
        // Single-flight join: another request is computing this key.
        flight = fit->second;
        ++ctr_.joins;
        cv_.wait(lk, [&] { return flight->done; });
        const ComputedResult &res = flight->res;
        return Outcome{res.ok, true, true, res.json, res.hash,
                       res.error};
    }

    flight = std::make_shared<Flight>();
    inflight_[key] = flight;
    lk.unlock();

    // The durable-tier probe runs inside the flight: concurrent
    // requests for this key wait on one disk read, not N, and a disk
    // hit is indistinguishable from a memory hit to every waiter.
    ComputedResult res;
    bool from_disk = false, rejected = false, spilled = false;
    if (!dir_.empty())
        from_disk = loadDisk(key, &res, &rejected);

    if (!from_disk) {
        try {
            res = compute();
        } catch (const SimError &err) {
            res = ComputedResult{};
            res.error = err.what();
        }
        if (res.ok && !dir_.empty())
            spilled = spillDisk(key, res);
    }

    lk.lock();
    if (from_disk)
        ++ctr_.disk_hits;
    else
        ++ctr_.misses;
    if (rejected)
        ++ctr_.restore_rejected;
    if (spilled)
        ++ctr_.spills;
    if (res.ok && max_entries_ > 0) {
        lru_.emplace_front(key, res);
        map_[key] = lru_.begin();
        while (lru_.size() > max_entries_) {
            map_.erase(lru_.back().first);
            lru_.pop_back();
            ++ctr_.evictions;
        }
    }
    ctr_.entries = lru_.size();
    flight->res = res;
    flight->done = true;
    inflight_.erase(key);
    cv_.notify_all();
    return Outcome{res.ok, from_disk, false, res.json, res.hash,
                   res.error};
}

ResultCache::Counters
ResultCache::counters() const
{
    std::lock_guard<std::mutex> lk(mu_);
    Counters c = ctr_;
    c.entries = lru_.size();
    return c;
}

} // namespace dmt
