/**
 * @file
 * Checksummed durable records: the one on-disk framing every store in
 * the simulator uses (sampled-run checkpoints, the daemon's durable
 * result tier), plus the FNV-1a digest and little-endian helpers that
 * build it.
 *
 *   magic[8] | key u64 | payload length u64 | payload | FNV-1a(payload) u64
 *
 * Integers are little-endian.  The magic names the format and its
 * version; the key ties a record to what it was written for (a result
 * cache key, a program-image hash); the footer covers every payload
 * byte, so a torn write or a flipped bit is rejected instead of being
 * read back as data.  Records are written to a temporary file and
 * renamed into place, so concurrent readers never see a partial one.
 */

#ifndef DMT_COMMON_RECORD_HH
#define DMT_COMMON_RECORD_HH

#include <cstring>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace dmt
{

/** FNV-1a offset basis (matches ArchState::kOutHashInit). */
constexpr u64 kFnvBasis = 0xcbf29ce484222325ull;

/** FNV-1a over @p bytes, chained from @p seed. */
u64 fnv1aHash(std::string_view bytes, u64 seed = kFnvBasis);

/** Append @p v to @p buf, little-endian. */
void putLe32(std::string *buf, u32 v);
void putLe64(std::string *buf, u64 v);

/** Bounds-checked little-endian reader over a byte buffer. */
struct ByteReader
{
    const u8 *p;
    size_t left;

    bool
    take(void *dst, size_t n)
    {
        if (left < n)
            return false;
        std::memcpy(dst, p, n);
        p += n;
        left -= n;
        return true;
    }

    bool u32At(u32 *v);
    bool u64At(u64 *v);
};

/**
 * Write @p payload to @p path as one record under @p magic and @p key.
 * @return false (with a warn()) when the file cannot be written.
 */
bool writeRecord(const std::string &path, const char (&magic)[8], u64 key,
                 std::string_view payload);

/** Outcome of readRecord(). */
enum class RecordRead : u8
{
    Ok,
    Missing,  ///< no readable file at the path
    Rejected, ///< a file whose magic, key, length or footer is wrong
};

/**
 * Read the record at @p path and verify its magic, key, length and
 * footer.  On Ok, @p payload holds the payload; on Rejected, @p why
 * names the first check that failed.
 */
RecordRead readRecord(const std::string &path, const char (&magic)[8],
                      u64 key, std::string *payload, std::string *why);

} // namespace dmt

#endif // DMT_COMMON_RECORD_HH
