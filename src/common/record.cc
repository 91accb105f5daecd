#include "common/record.hh"

#include <cstdio>
#include <cstring>

#include "common/log.hh"

namespace dmt
{

namespace
{

/** magic + key + payload length. */
constexpr size_t kHeaderBytes = 24;
constexpr size_t kFooterBytes = 8;

/** Append @p v to @p buf, little-endian. */
void
putLe64(std::string *buf, u64 v)
{
    for (int i = 0; i < 8; ++i)
        buf->push_back(static_cast<char>(v >> (8 * i)));
}

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

    bool
    u64At(u64 *v)
    {
        u8 b[8];
        if (!take(b, sizeof(b)))
            return false;
        *v = 0;
        for (int i = 7; i >= 0; --i)
            *v = *v << 8 | b[i];
        return true;
    }
};

} // namespace

u64
fnv1aHash(std::string_view bytes, u64 seed)
{
    u64 h = seed;
    for (const char c : bytes)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    return h;
}

bool
writeRecord(const std::string &path, const char (&magic)[8], u64 key,
            std::string_view payload)
{
    // The footer (not a header field) is the torn-write guard: a crash
    // mid-write leaves a file whose digest cannot match.
    std::string head(magic, sizeof(magic));
    putLe64(&head, key);
    putLe64(&head, static_cast<u64>(payload.size()));
    std::string foot;
    putLe64(&foot, fnv1aHash(payload));

    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("cannot write %s", tmp.c_str());
        return false;
    }
    const bool wrote =
        std::fwrite(head.data(), 1, head.size(), f) == head.size()
        && std::fwrite(payload.data(), 1, payload.size(), f)
            == payload.size()
        && std::fwrite(foot.data(), 1, foot.size(), f) == foot.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("failed to persist %s", path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

RecordRead
readRecord(const std::string &path, const char (&magic)[8], u64 key,
           std::string *payload, std::string *why)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return RecordRead::Missing;
    std::string buf;
    char chunk[65536];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        buf.append(chunk, n);
    std::fclose(f);

    const auto reject = [&](const char *reason) {
        *why = reason;
        return RecordRead::Rejected;
    };
    ByteReader rd{reinterpret_cast<const u8 *>(buf.data()), buf.size()};
    char got_magic[8];
    u64 got_key = 0, len = 0, footer = 0;
    if (!rd.take(got_magic, sizeof(got_magic)) || !rd.u64At(&got_key)
        || !rd.u64At(&len))
        return reject("truncated header");
    if (std::memcmp(got_magic, magic, sizeof(got_magic)) != 0)
        return reject("bad magic/version");
    if (got_key != key)
        return reject("key mismatch (stale record)");
    if (len > buf.size()
        || buf.size() != kHeaderBytes + len + kFooterBytes)
        return reject("torn or oversized payload");
    const std::string_view body(buf.data() + kHeaderBytes, len);
    rd.p += len;
    rd.left -= len;
    rd.u64At(&footer);
    if (fnv1aHash(body) != footer)
        return reject("integrity footer mismatch");
    payload->assign(body);
    return RecordRead::Ok;
}

} // namespace dmt
