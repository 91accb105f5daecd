/**
 * @file
 * Checksummed durable records: the on-disk framing of the daemon's
 * result files (serve/cache.hh), plus the FNV-1a digest it and the
 * rest of the simulator hash with.
 *
 *   magic[8] | key u64 | payload length u64 | payload | FNV-1a(payload) u64
 *
 * Integers are little-endian.  The magic names the format and its
 * version; the key ties a record to what it was written for (a result
 * cache key); the footer covers every payload byte, so a torn write or
 * a flipped bit is rejected instead of being read back as data.
 * Records are written to a temporary file and renamed into place, so
 * concurrent readers never see a partial one.
 */

#ifndef DMT_COMMON_RECORD_HH
#define DMT_COMMON_RECORD_HH

#include <string>
#include <string_view>

#include "common/types.hh"

namespace dmt
{

/** FNV-1a offset basis (matches ArchState::kOutHashInit). */
constexpr u64 kFnvBasis = 0xcbf29ce484222325ull;

/** FNV-1a over @p bytes, chained from @p seed. */
u64 fnv1aHash(std::string_view bytes, u64 seed = kFnvBasis);

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
