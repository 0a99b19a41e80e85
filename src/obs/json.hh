/**
 * @file
 * Minimal JSON support for the observability layer: a streaming writer
 * (manifests, metric dumps) and a small recursive-descent parser
 * (pfits_report reads manifests back to aggregate and diff them).
 *
 * The writer emits deterministic output — no hash-map iteration order,
 * fixed number formatting — so two identical runs produce byte-
 * identical manifests modulo the explicitly volatile fields (times).
 * The parser accepts exactly the JSON this repo writes plus ordinary
 * interchange documents; it is not a general-purpose validator.
 */

#ifndef POWERFITS_OBS_JSON_HH
#define POWERFITS_OBS_JSON_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace pfits
{

/**
 * Deepest container nesting JsonValue::parse accepts. The parser
 * recurses once per level, and pfitsd parses untrusted frames, so an
 * unbounded "[[[[..." would overflow the stack; documents this repo
 * writes nest fewer than ten levels.
 */
constexpr size_t kJsonMaxDepth = 256;

/**
 * Largest document JsonValue::parse accepts by default. Manifests,
 * store entries, suite aggregates and frames stay far below 1 MiB; the
 * cap bounds what a corrupt input makes a reader spend.
 */
constexpr size_t kJsonMaxBytes = 16u << 20;

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscapeString(const std::string &s);

/** Format a double the way the writer does ("%.12g", -0 folded to 0). */
std::string jsonFormatDouble(double value);

/**
 * A streaming JSON writer with pretty-printing.
 *
 * Usage is push-based: beginObject()/key()/value()/endObject(). The
 * writer tracks nesting and comma placement; mismatched begin/end or a
 * value without a key inside an object throw via fatal().
 */
class JsonWriter
{
  public:
    /** @param indent spaces per nesting level (0 = compact). */
    explicit JsonWriter(std::ostream &os, int indent = 2)
        : os_(os), indent_(indent)
    {
    }

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next emission is its value. */
    void key(const std::string &name);

    void value(const std::string &v);
    void value(const char *v);
    void value(double v);
    void value(bool v);
    void value(uint64_t v);
    void value(int64_t v);
    void value(int v) { value(static_cast<int64_t>(v)); }
    void value(unsigned v) { value(static_cast<uint64_t>(v)); }
    void nullValue();

    /** uint64 rendered as a 0x-prefixed hex string (lossless in JSON). */
    void hexValue(uint64_t v);

    /** Convenience: key + value in one call. */
    template <typename T>
    void
    field(const std::string &name, const T &v)
    {
        key(name);
        value(v);
    }

    /** @return true once the single top-level value is complete. */
    bool done() const { return done_; }

  private:
    enum class Ctx : uint8_t { Object, Array };

    void preValue(); //!< comma/newline/indent bookkeeping + key checks
    void newline(size_t depth);

    std::ostream &os_;
    int indent_;
    std::vector<Ctx> stack_;
    std::vector<bool> hasItems_;
    bool keyPending_ = false;
    bool done_ = false;
};

/**
 * A parsed JSON document node. Numbers are stored as doubles — the
 * repo's manifests encode 64-bit hashes as hex *strings* precisely so
 * nothing meaningful lives beyond 2^53.
 */
class JsonValue
{
  public:
    enum class Type : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    JsonValue() = default;

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }
    bool isString() const { return type_ == Type::String; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isBool() const { return type_ == Type::Bool; }

    /** Typed accessors; calling the wrong one throws via fatal(). */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;

    /** Object member lookup; @return null-typed sentinel when absent. */
    const JsonValue &get(const std::string &name) const;
    bool has(const std::string &name) const;

    /** Object members in document order. */
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    // Builders (for documents assembled in code, e.g. suite files).
    static JsonValue makeObject();
    static JsonValue makeArray();
    static JsonValue makeString(std::string s);
    static JsonValue makeNumber(double v);
    static JsonValue makeBool(bool v);

    /** Object builder: set/overwrite member @p name. */
    JsonValue &set(const std::string &name, JsonValue v);

    /** Array builder: append @p v. */
    JsonValue &push(JsonValue v);

    /**
     * Parse one JSON document (must consume all non-whitespace input).
     * Throws FatalError with a line/column diagnostic on bad input,
     * including containers nested deeper than kJsonMaxDepth, and on a
     * document longer than @p maxBytes.
     */
    static JsonValue parse(const std::string &text,
                           size_t maxBytes = kJsonMaxBytes);

    /**
     * Parse the contents of @p path (throws on I/O error too). A file
     * longer than @p maxBytes is refused before it is read.
     */
    static JsonValue parseFile(const std::string &path,
                               size_t maxBytes = kJsonMaxBytes);

  private:
    friend class JsonParser;

    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/** "0x<16 hex digits>" for a 64-bit hash (JSON numbers stop being
 *  exact at 2^53). */
std::string hexString(uint64_t v);

/** Parse a "0x<hex>" string. @return false on malformed input. */
bool parseHexU64(const std::string &s, uint64_t *out);

/**
 * Read @p v into an integer type T. JSON numbers are doubles, and
 * casting a negative, fractional, non-finite or out-of-range double to
 * an integer type is undefined behaviour, so anything but a finite,
 * non-negative integer that fits in T fails the read. Every integer
 * that crosses a trust boundary is read through this.
 */
template <typename T>
bool
getUnsigned(const JsonValue &v, T *out)
{
    if (!v.isNumber())
        return false;
    const double d = v.asNumber();
    // max()+1 is a power of two, so the double holds it exactly.
    const double limit =
        static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
    if (!(d >= 0 && d < limit) || d != std::floor(d))
        return false;
    *out = static_cast<T>(d);
    return true;
}

} // namespace pfits

#endif // POWERFITS_OBS_JSON_HH
