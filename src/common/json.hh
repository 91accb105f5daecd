/**
 * @file
 * Dependency-free JSON support: a streaming writer (JsonWriter) used to
 * serialize stats, configurations and trace artifacts, and a small
 * recursive-descent parser (JsonValue) used by tests and tooling to
 * validate what the writer and the trace sinks produce.
 */

#ifndef DMT_COMMON_JSON_HH
#define DMT_COMMON_JSON_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace dmt
{

/**
 * Streaming JSON writer.  Values and containers are emitted in call
 * order; the writer tracks nesting and inserts commas, so callers only
 * describe structure:
 *
 *   JsonWriter w;
 *   w.beginObject().key("cycles").value(u64{100}).endObject();
 *   file << w.str();
 *
 * Doubles that are not finite serialize as null (JSON has no NaN).
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next call must emit its value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    JsonWriter &value(u64 v);
    JsonWriter &value(i64 v);
    JsonWriter &value(int v) { return value(static_cast<i64>(v)); }
    JsonWriter &value(unsigned v) { return value(static_cast<u64>(v)); }
    JsonWriter &nullValue();

    /**
     * Splice @p json — an already-serialized JSON value — verbatim into
     * the document.  This is how the serve layer embeds cached
     * canonical RunResult documents into replies without a parse →
     * re-serialize round trip (which would not be byte-identical: the
     * parser stores numbers as doubles).  The caller guarantees
     * @p json is one complete, valid JSON value.
     */
    JsonWriter &rawValue(std::string_view json);

    /** True once a value was written and every container is closed. */
    bool complete() const { return any && depth == 0; }

    /** The document text; asserts the document is complete. */
    const std::string &str() const;

  private:
    void beforeValue();
    void appendEscaped(std::string_view s);

    std::string out;
    /** One frame per open container: 'o' object, 'a' array. */
    std::vector<char> stack{};
    int depth = 0;
    bool any = false;        ///< something was ever written
    bool need_comma = false;
    bool have_key = false;
};

/** A parsed JSON document node. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    /**
     * Parse @p text as one JSON document (trailing whitespace allowed).
     * @retval true on success; otherwise @p err (if given) describes
     * the failure and its offset.
     */
    static bool parse(std::string_view text, JsonValue *out,
                      std::string *err = nullptr);

    Type type() const { return type_; }

    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array elements (empty unless type is Array). */
    const std::vector<JsonValue> &elements() const { return elems; }

    /** Object members in document order (empty unless Object). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return membs;
    }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &k) const;

    /** Re-serialize through JsonWriter (canonical round-trip form). */
    void writeTo(JsonWriter &w) const;
    std::string dump() const;

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double num = 0.0;
    std::string str_;
    std::vector<JsonValue> elems;
    std::vector<std::pair<std::string, JsonValue>> membs;

    friend class JsonParser;
};

} // namespace dmt

#endif // DMT_COMMON_JSON_HH
