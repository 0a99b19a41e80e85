#include "svc/proto.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "fits/serialize.hh"

namespace pfits
{

// --- framing -------------------------------------------------------------

namespace
{

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Move @p len bytes through @p fd before @p deadline_at (absolute ms,
 * 0 = none), polling for readiness so a stalled peer turns into a
 * clean timeout instead of a blocked thread.
 */
bool
pumpBytes(int fd, char *buf, size_t len, bool writing,
          int64_t deadline_at, std::string *err)
{
    size_t done = 0;
    while (done < len) {
        int wait_ms = -1;
        if (deadline_at != 0) {
            int64_t left = deadline_at - nowMs();
            if (left <= 0) {
                if (err)
                    *err = "timeout";
                return false;
            }
            wait_ms = static_cast<int>(left);
        }

        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = writing ? POLLOUT : POLLIN;
        pfd.revents = 0;
        int pr = ::poll(&pfd, 1, wait_ms);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = std::string("poll: ") + std::strerror(errno);
            return false;
        }
        if (pr == 0) {
            if (err)
                *err = "timeout";
            return false;
        }

        ssize_t n;
        if (writing) {
            n = ::send(fd, buf + done, len - done, MSG_NOSIGNAL);
        } else {
            n = ::recv(fd, buf + done, len - done, 0);
        }
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            if (err)
                *err = std::string(writing ? "send: " : "recv: ") +
                       std::strerror(errno);
            return false;
        }
        if (n == 0) {
            if (err)
                *err = done == 0 && !writing ? "eof" : "peer closed";
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

bool
sendFrame(int fd, const std::string &payload, int deadline_ms,
          std::string *err)
{
    if (payload.size() > kMaxFrameBytes) {
        if (err)
            *err = "frame too large";
        return false;
    }
    int64_t deadline_at = deadline_ms > 0 ? nowMs() + deadline_ms : 0;
    uint32_t len = static_cast<uint32_t>(payload.size());
    char hdr[4] = {static_cast<char>(len >> 24),
                   static_cast<char>(len >> 16),
                   static_cast<char>(len >> 8), static_cast<char>(len)};
    if (!pumpBytes(fd, hdr, sizeof(hdr), true, deadline_at, err))
        return false;
    std::string body = payload; // pumpBytes wants mutable storage
    return pumpBytes(fd, body.data(), body.size(), true, deadline_at,
                     err);
}

bool
recvFrame(int fd, std::string *payload, int deadline_ms,
          std::string *err)
{
    int64_t deadline_at = deadline_ms > 0 ? nowMs() + deadline_ms : 0;
    char hdr[4];
    if (!pumpBytes(fd, hdr, sizeof(hdr), false, deadline_at, err))
        return false;
    uint32_t len = (static_cast<uint32_t>(static_cast<uint8_t>(hdr[0]))
                    << 24) |
                   (static_cast<uint32_t>(static_cast<uint8_t>(hdr[1]))
                    << 16) |
                   (static_cast<uint32_t>(static_cast<uint8_t>(hdr[2]))
                    << 8) |
                   static_cast<uint32_t>(static_cast<uint8_t>(hdr[3]));
    if (len > kMaxFrameBytes) {
        if (err)
            *err = "frame too large";
        return false;
    }
    payload->assign(len, '\0');
    if (len == 0)
        return true;
    return pumpBytes(fd, payload->data(), len, false, deadline_at, err);
}

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
