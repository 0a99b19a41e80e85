#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace pfits
{

std::string
jsonEscapeString(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    return out;
}

std::string
jsonFormatDouble(double value)
{
    if (!std::isfinite(value))
        return "0"; // JSON has no Inf/NaN; manifests never need them
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", value + 0.0);
    // "%.12g" can print "-0"; fold it so identical runs stay identical.
    if (std::string_view(buf) == "-0")
        return "0";
    return buf;
}

std::string
hexString(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
parseHexU64(const std::string &s, uint64_t *out)
{
    if (s.size() < 3 || s.size() > 18 || s[0] != '0' ||
        (s[1] != 'x' && s[1] != 'X'))
        return false;
    uint64_t v = 0;
    for (size_t i = 2; i < s.size(); ++i) {
        char c = s[i];
        unsigned digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            return false;
        v = (v << 4) | digit;
    }
    *out = v;
    return true;
}

// --- JsonWriter ----------------------------------------------------------

void
JsonWriter::newline(size_t depth)
{
    if (indent_ <= 0)
        return;
    os_ << '\n';
    for (size_t i = 0; i < depth * static_cast<size_t>(indent_); ++i)
        os_ << ' ';
}

void
JsonWriter::preValue()
{
    if (done_)
        fatal("json: writing past the end of the document");
    if (!stack_.empty() && stack_.back() == Ctx::Object && !keyPending_)
        fatal("json: value inside an object requires key() first");
    if (!stack_.empty() && stack_.back() == Ctx::Array) {
        if (hasItems_.back())
            os_ << ',';
        hasItems_.back() = true;
        newline(stack_.size());
    }
    keyPending_ = false;
}

void
JsonWriter::key(const std::string &name)
{
    if (stack_.empty() || stack_.back() != Ctx::Object)
        fatal("json: key() outside an object");
    if (keyPending_)
        fatal("json: key() twice without a value");
    if (hasItems_.back())
        os_ << ',';
    hasItems_.back() = true;
    newline(stack_.size());
    os_ << '"' << jsonEscapeString(name) << "\":";
    if (indent_ > 0)
        os_ << ' ';
    keyPending_ = true;
}

void
JsonWriter::beginObject()
{
    preValue();
    os_ << '{';
    stack_.push_back(Ctx::Object);
    hasItems_.push_back(false);
}

void
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back() != Ctx::Object || keyPending_)
        fatal("json: mismatched endObject()");
    bool had = hasItems_.back();
    stack_.pop_back();
    hasItems_.pop_back();
    if (had)
        newline(stack_.size());
    os_ << '}';
    if (stack_.empty()) {
        done_ = true;
        if (indent_ > 0)
            os_ << '\n';
    }
}

void
JsonWriter::beginArray()
{
    preValue();
    os_ << '[';
    stack_.push_back(Ctx::Array);
    hasItems_.push_back(false);
}

void
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back() != Ctx::Array)
        fatal("json: mismatched endArray()");
    bool had = hasItems_.back();
    stack_.pop_back();
    hasItems_.pop_back();
    if (had)
        newline(stack_.size());
    os_ << ']';
    if (stack_.empty()) {
        done_ = true;
        if (indent_ > 0)
            os_ << '\n';
    }
}

void
JsonWriter::value(const std::string &v)
{
    preValue();
    os_ << '"' << jsonEscapeString(v) << '"';
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::value(const char *v)
{
    value(std::string(v));
}

void
JsonWriter::value(double v)
{
    preValue();
    os_ << jsonFormatDouble(v);
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::value(bool v)
{
    preValue();
    os_ << (v ? "true" : "false");
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::value(uint64_t v)
{
    preValue();
    os_ << v;
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::value(int64_t v)
{
    preValue();
    os_ << v;
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::nullValue()
{
    preValue();
    os_ << "null";
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::hexValue(uint64_t v)
{
    value(hexString(v));
}

// --- JsonValue accessors -------------------------------------------------

namespace
{

const char *
jsonTypeName(JsonValue::Type t)
{
    switch (t) {
      case JsonValue::Type::Null: return "null";
      case JsonValue::Type::Bool: return "bool";
      case JsonValue::Type::Number: return "number";
      case JsonValue::Type::String: return "string";
      case JsonValue::Type::Array: return "array";
      case JsonValue::Type::Object: return "object";
      default: panic("bad JsonValue::Type");
    }
}

const JsonValue kNullValue{};

} // namespace

bool
JsonValue::asBool() const
{
    if (type_ != Type::Bool)
        fatal("json: asBool() on a %s", jsonTypeName(type_));
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (type_ != Type::Number)
        fatal("json: asNumber() on a %s", jsonTypeName(type_));
    return number_;
}

const std::string &
JsonValue::asString() const
{
    if (type_ != Type::String)
        fatal("json: asString() on a %s", jsonTypeName(type_));
    return string_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (type_ != Type::Array)
        fatal("json: asArray() on a %s", jsonTypeName(type_));
    return array_;
}

const JsonValue &
JsonValue::get(const std::string &name) const
{
    if (type_ != Type::Object)
        fatal("json: get(\"%s\") on a %s", name.c_str(),
              jsonTypeName(type_));
    for (const auto &[key, val] : object_)
        if (key == name)
            return val;
    return kNullValue;
}

bool
JsonValue::has(const std::string &name) const
{
    return type_ == Type::Object && !get(name).isNull();
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (type_ != Type::Object)
        fatal("json: members() on a %s", jsonTypeName(type_));
    return object_;
}

// --- builders ------------------------------------------------------------

JsonValue
JsonValue::makeObject()
{
    JsonValue v;
    v.type_ = Type::Object;
    return v;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue v;
    v.type_ = Type::Array;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.type_ = Type::String;
    v.string_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeNumber(double d)
{
    JsonValue v;
    v.type_ = Type::Number;
    v.number_ = d;
    return v;
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
}

JsonValue &
JsonValue::set(const std::string &name, JsonValue v)
{
    if (type_ != Type::Object)
        fatal("json: set(\"%s\") on a %s", name.c_str(),
              jsonTypeName(type_));
    for (auto &[key, val] : object_) {
        if (key == name) {
            val = std::move(v);
            return *this;
        }
    }
    object_.emplace_back(name, std::move(v));
    return *this;
}

JsonValue &
JsonValue::push(JsonValue v)
{
    if (type_ != Type::Array)
        fatal("json: push() on a %s", jsonTypeName(type_));
    array_.push_back(std::move(v));
    return *this;
}

// --- parser --------------------------------------------------------------

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage after the document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *why)
    {
        size_t line = 1, col = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("json parse error at line %zu col %zu: %s", line, col,
              why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // Encode the BMP code point as UTF-8 (surrogate pairs
                // are not combined; our own writer never emits them).
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(
                        static_cast<char>(0xc0 | (cp >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                } else {
                    out.push_back(
                        static_cast<char>(0xe0 | (cp >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((cp >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                }
                break;
              }
              default: fail("bad escape character");
            }
        }
    }

    /** Parse one value nested inside @p depth containers. */
    JsonValue
    parseValue(size_t depth)
    {
        skipWs();
        char c = peek();
        JsonValue v;
        if ((c == '{' || c == '[') && depth == kJsonMaxDepth)
            fail("containers nested too deeply");
        if (c == '{') {
            ++pos_;
            v.type_ = JsonValue::Type::Object;
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            for (;;) {
                skipWs();
                std::string key = parseString();
                skipWs();
                expect(':');
                v.object_.emplace_back(std::move(key),
                                       parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            ++pos_;
            v.type_ = JsonValue::Type::Array;
            skipWs();
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            for (;;) {
                v.array_.push_back(parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.type_ = JsonValue::Type::String;
            v.string_ = parseString();
            return v;
        }
        if (consumeLiteral("true")) {
            v.type_ = JsonValue::Type::Bool;
            v.bool_ = true;
            return v;
        }
        if (consumeLiteral("false")) {
            v.type_ = JsonValue::Type::Bool;
            v.bool_ = false;
            return v;
        }
        if (consumeLiteral("null"))
            return v;
        // Number: delegate to strtod over the maximal plausible span.
        size_t start = pos_;
        if (c == '-' || c == '+')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        std::string num = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double d = std::strtod(num.c_str(), &end);
        if (end != num.c_str() + num.size())
            fail("malformed number");
        v.type_ = JsonValue::Type::Number;
        v.number_ = d;
        return v;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

JsonValue
JsonValue::parse(const std::string &text, size_t maxBytes)
{
    if (text.size() > maxBytes)
        fatal("json: document of %zu bytes exceeds the %zu-byte limit",
              text.size(), maxBytes);
    return JsonParser(text).parseDocument();
}

JsonValue
JsonValue::parseFile(const std::string &path, size_t maxBytes)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        fatal("json: cannot open '%s'", path.c_str());
    const std::streamoff size = in.tellg();
    if (size >= 0 && static_cast<uint64_t>(size) > maxBytes)
        fatal("json: '%s' is %lld bytes, over the %zu-byte limit",
              path.c_str(), static_cast<long long>(size), maxBytes);
    in.seekg(0);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str(), maxBytes);
}

} // namespace pfits
