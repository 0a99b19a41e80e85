#include "svc/proto.hh"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "fits/serialize.hh"

namespace pfits
{

// --- keys ----------------------------------------------------------------

std::string
keyFileName(const SimKey &key)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%016llx-%016llx-%016llx-%016llx.json",
                  static_cast<unsigned long long>(key.program),
                  static_cast<unsigned long long>(key.config),
                  static_cast<unsigned long long>(key.faults),
                  static_cast<unsigned long long>(key.observers));
    return buf;
}

// --- store entries -------------------------------------------------------

namespace
{

constexpr const char *kChecksumTag = "checksum ";

/**
 * Split an entry into its JSON line and verify the checksum trailer.
 * @return false with a diagnostic when the trailer is absent, garbled,
 * or does not match the line.
 */
bool
splitAndVerify(const std::string &text, std::string *line,
               std::string *err)
{
    size_t nl = text.find('\n');
    if (nl == std::string::npos) {
        if (err)
            *err = "no checksum trailer";
        return false;
    }
    *line = text.substr(0, nl);

    std::string trailer = text.substr(nl + 1);
    while (!trailer.empty() && (trailer.back() == '\n' ||
                                trailer.back() == '\r'))
        trailer.pop_back();
    if (trailer.rfind(kChecksumTag, 0) != 0) {
        if (err)
            *err = "malformed checksum trailer";
        return false;
    }
    uint64_t want = 0;
    if (!parseHexU64(trailer.substr(std::strlen(kChecksumTag)),
                     &want)) {
        if (err)
            *err = "malformed checksum value";
        return false;
    }
    uint64_t got = configChecksum(*line);
    if (got != want) {
        if (err)
            *err = "checksum mismatch (stored " + hexString(want) +
                   ", computed " + hexString(got) + ")";
        return false;
    }
    return true;
}

} // namespace

std::string
encodeResultEntry(const SimKey &key, const SimResult &result)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("schema", kStoreSchema);
    w.key("key");
    writeJsonFields(w, key);
    w.key("result");
    writeJsonFields(w, result);
    w.endObject();
    std::string line = os.str();
    return line + "\n" + kChecksumTag + hexString(configChecksum(line)) +
           "\n";
}

bool
decodeResultEntry(const std::string &text, SimKey *key,
                  SimResult *result, std::string *err)
{
    std::string line;
    if (!splitAndVerify(text, &line, err))
        return false;

    JsonValue doc;
    try {
        doc = JsonValue::parse(line);
    } catch (const FatalError &e) {
        if (err)
            *err = std::string("bad entry JSON: ") + e.what();
        return false;
    }
    if (!doc.isObject() || !doc.get("schema").isString() ||
        doc.get("schema").asString() != kStoreSchema) {
        if (err)
            *err = "bad entry schema";
        return false;
    }
    if (!readJsonFields(doc.get("key"), *key)) {
        if (err)
            *err = "bad entry key";
        return false;
    }
    if (result && !readJsonFields(doc.get("result"), *result)) {
        if (err)
            *err = "bad entry result";
        return false;
    }
    return true;
}

bool
verifyResultEntry(const std::string &text, SimKey *key,
                  std::string *err)
{
    return decodeResultEntry(text, key, nullptr, err);
}

} // namespace pfits
