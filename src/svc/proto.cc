#include "svc/proto.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <cmath>
#include <limits>
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

// --- key and config serialization ----------------------------------------

namespace
{

/**
 * Read @p v into an unsigned integer. JSON numbers are doubles, and
 * casting a negative, fractional, non-finite or out-of-range double to
 * an unsigned type is undefined behaviour, so anything but a finite,
 * non-negative integer that fits in T fails the decode.
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

} // namespace

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

void
writeKeyJson(JsonWriter &w, const SimCacheKey &key)
{
    w.beginObject();
    w.key("program");
    w.hexValue(key.program);
    w.key("config");
    w.hexValue(key.config);
    w.key("faults");
    w.hexValue(key.faults);
    w.key("observers");
    w.hexValue(key.observers);
    w.endObject();
}

bool
parseKeyJson(const JsonValue &v, SimCacheKey *key)
{
    if (!v.isObject())
        return false;
    const JsonValue &p = v.get("program");
    const JsonValue &c = v.get("config");
    const JsonValue &f = v.get("faults");
    const JsonValue &o = v.get("observers");
    if (!p.isString() || !c.isString() || !f.isString() ||
        !o.isString())
        return false;
    return parseHexU64(p.asString(), &key->program) &&
           parseHexU64(c.asString(), &key->config) &&
           parseHexU64(f.asString(), &key->faults) &&
           parseHexU64(o.asString(), &key->observers);
}

std::string
keyFileName(const SimCacheKey &key)
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

namespace
{

void
writeCacheConfigJson(JsonWriter &w, const CacheConfig &c)
{
    w.beginObject();
    w.field("name", c.name);
    w.field("size_bytes", static_cast<uint64_t>(c.sizeBytes));
    w.field("assoc", static_cast<uint64_t>(c.assoc));
    w.field("line_bytes", static_cast<uint64_t>(c.lineBytes));
    w.field("policy", replPolicyName(c.policy));
    w.field("write_back", c.writeBack);
    w.field("parity", c.parity);
    w.endObject();
}

bool
parseReplPolicy(const std::string &name, ReplPolicy *policy)
{
    for (ReplPolicy p : {ReplPolicy::LRU, ReplPolicy::FIFO,
                         ReplPolicy::RANDOM, ReplPolicy::ROUND_ROBIN}) {
        if (name == replPolicyName(p)) {
            *policy = p;
            return true;
        }
    }
    return false;
}

bool
parseCacheConfigJson(const JsonValue &v, CacheConfig *c)
{
    if (!v.isObject())
        return false;
    if (!v.get("name").isString() ||
        !getUnsigned(v.get("size_bytes"), &c->sizeBytes) ||
        !getUnsigned(v.get("assoc"), &c->assoc) ||
        !getUnsigned(v.get("line_bytes"), &c->lineBytes) ||
        !v.get("policy").isString() ||
        !v.get("write_back").isBool() || !v.get("parity").isBool())
        return false;
    c->name = v.get("name").asString();
    c->writeBack = v.get("write_back").asBool();
    c->parity = v.get("parity").asBool();
    return parseReplPolicy(v.get("policy").asString(), &c->policy);
}

} // namespace

void
writeCoreConfigJson(JsonWriter &w, const CoreConfig &core)
{
    w.beginObject();
    w.field("name", core.name);
    w.field("issue_width", static_cast<uint64_t>(core.issueWidth));
    w.field("branch_penalty",
            static_cast<uint64_t>(core.branchPenalty));
    w.field("icache_miss_penalty",
            static_cast<uint64_t>(core.icacheMissPenalty));
    w.field("dcache_miss_penalty",
            static_cast<uint64_t>(core.dcacheMissPenalty));
    w.key("icache");
    writeCacheConfigJson(w, core.icache);
    w.key("dcache");
    writeCacheConfigJson(w, core.dcache);
    w.field("max_instructions", core.maxInstructions);
    w.field("clock_hz", core.clockHz);
    w.field("packed_fetch", core.packedFetch);
    // Written only when non-default so pre-backend servers (and logged
    // requests) keep parsing; the parser mirrors the default.
    if (core.backend != SimBackend::Interp)
        w.field("backend", std::string(simBackendName(core.backend)));
    w.endObject();
}

bool
parseCoreConfigJson(const JsonValue &v, CoreConfig *core)
{
    if (!v.isObject())
        return false;
    if (!v.get("name").isString() ||
        !getUnsigned(v.get("issue_width"), &core->issueWidth) ||
        !getUnsigned(v.get("branch_penalty"), &core->branchPenalty) ||
        !getUnsigned(v.get("icache_miss_penalty"),
                     &core->icacheMissPenalty) ||
        !getUnsigned(v.get("dcache_miss_penalty"),
                     &core->dcacheMissPenalty) ||
        !getUnsigned(v.get("max_instructions"),
                     &core->maxInstructions) ||
        !v.get("clock_hz").isNumber() ||
        !v.get("packed_fetch").isBool())
        return false;
    core->name = v.get("name").asString();
    core->clockHz = v.get("clock_hz").asNumber();
    core->packedFetch = v.get("packed_fetch").asBool();
    core->backend = SimBackend::Interp;
    if (v.get("backend").isString() &&
        !parseSimBackend(v.get("backend").asString(), &core->backend))
        return false;
    return parseCacheConfigJson(v.get("icache"), &core->icache) &&
           parseCacheConfigJson(v.get("dcache"), &core->dcache);
}

void
writeFaultParamsJson(JsonWriter &w, const FaultParams &faults)
{
    w.beginObject();
    w.key("seed");
    w.hexValue(faults.seed);
    w.field("icache_mean_interval", faults.icacheMeanInterval);
    w.field("memory_mean_interval", faults.memoryMeanInterval);
    w.endObject();
}

bool
parseFaultParamsJson(const JsonValue &v, FaultParams *faults)
{
    if (!v.isObject() || !v.get("seed").isString() ||
        !getUnsigned(v.get("icache_mean_interval"),
                     &faults->icacheMeanInterval) ||
        !getUnsigned(v.get("memory_mean_interval"),
                     &faults->memoryMeanInterval))
        return false;
    return parseHexU64(v.get("seed").asString(), &faults->seed);
}

// --- result serialization ------------------------------------------------

namespace
{

void
writeCacheStatsJson(JsonWriter &w, const CacheStats &s)
{
    w.beginObject();
    w.field("reads", s.reads);
    w.field("writes", s.writes);
    w.field("read_misses", s.readMisses);
    w.field("write_misses", s.writeMisses);
    w.field("writebacks", s.writebacks);
    w.field("faults_injected", s.faultsInjected);
    w.field("parity_detections", s.parityDetections);
    w.field("corrupt_deliveries", s.corruptDeliveries);
    w.field("way_memo_hits", s.wayMemoHits);
    w.endObject();
}

bool
parseCacheStatsJson(const JsonValue &v, CacheStats *s)
{
    if (!v.isObject())
        return false;
    static const char *kFields[] = {
        "reads",           "writes",
        "read_misses",     "write_misses",
        "writebacks",      "faults_injected",
        "parity_detections", "corrupt_deliveries"};
    uint64_t *dst[] = {&s->reads,
                       &s->writes,
                       &s->readMisses,
                       &s->writeMisses,
                       &s->writebacks,
                       &s->faultsInjected,
                       &s->parityDetections,
                       &s->corruptDeliveries};
    for (size_t i = 0; i < 8; ++i)
        if (!getUnsigned(v.get(kFields[i]), dst[i]))
            return false;
    // Optional: stores written before the way-memo counter existed
    // stay loadable (schema string is unchanged).
    const JsonValue &memo = v.get("way_memo_hits");
    s->wayMemoHits = 0;
    return memo.isNull() || getUnsigned(memo, &s->wayMemoHits);
}

bool
parseRunOutcome(const std::string &name, RunOutcome *outcome)
{
    for (RunOutcome o :
         {RunOutcome::Completed, RunOutcome::Trapped,
          RunOutcome::WatchdogExpired, RunOutcome::FaultDetected}) {
        if (name == runOutcomeName(o)) {
            *outcome = o;
            return true;
        }
    }
    return false;
}

} // namespace

void
writeSimResultJson(JsonWriter &w, const SimResult &result)
{
    const RunResult &r = result.run;
    w.beginObject();
    w.key("run");
    w.beginObject();
    w.field("benchmark", r.benchmark);
    w.field("config", r.config);
    w.field("instructions", r.instructions);
    w.field("annulled", r.annulled);
    w.field("cycles", r.cycles);
    w.field("clock_hz", r.clockHz);
    w.key("icache");
    writeCacheStatsJson(w, r.icache);
    w.key("dcache");
    writeCacheStatsJson(w, r.dcache);
    w.field("fetch_toggle_bits", r.fetchToggleBits);
    w.field("fetch_bits_total", r.fetchBitsTotal);
    w.field("icache_refill_words", r.icacheRefillWords);
    w.field("dmem_accesses", r.dmemAccesses);
    w.field("taken_branches", r.takenBranches);
    w.key("io");
    w.beginObject();
    w.field("console", r.io.console);
    w.key("emitted");
    w.beginArray();
    for (uint32_t word : r.io.emitted)
        w.value(static_cast<uint64_t>(word));
    w.endArray();
    w.endObject();
    w.key("final_state");
    w.beginObject();
    w.key("regs");
    w.beginArray();
    for (uint32_t reg : r.finalState.regs)
        w.value(static_cast<uint64_t>(reg));
    w.endArray();
    w.key("flags");
    w.beginObject();
    w.field("n", r.finalState.flags.n);
    w.field("z", r.finalState.flags.z);
    w.field("c", r.finalState.flags.c);
    w.field("v", r.finalState.flags.v);
    w.endObject();
    w.field("halted", r.finalState.halted);
    w.endObject();
    w.field("outcome", runOutcomeName(r.outcome));
    w.field("trap_reason", r.trapReason);
    w.endObject();

    w.field("fault_retries",
            static_cast<uint64_t>(result.faultRetries));
    w.key("intervals");
    w.beginArray();
    for (const IntervalSample &s : result.intervals) {
        w.beginObject();
        w.field("first_instruction", s.firstInstruction);
        w.field("instructions", s.instructions);
        w.field("cycles", s.cycles);
        w.field("icache_accesses", s.icacheAccesses);
        w.field("icache_misses", s.icacheMisses);
        w.field("toggle_bits", s.toggleBits);
        w.field("fetch_bits", s.fetchBits);
        w.endObject();
    }
    w.endArray();
    w.field("trace_path", result.tracePath);
    w.endObject();
}

bool
parseSimResultJson(const JsonValue &v, SimResult *result)
{
    if (!v.isObject())
        return false;
    const JsonValue &rv = v.get("run");
    if (!rv.isObject() || !v.get("fault_retries").isNumber() ||
        !v.get("intervals").isArray() ||
        !v.get("trace_path").isString())
        return false;

    RunResult &r = result->run;
    if (!rv.get("benchmark").isString() ||
        !rv.get("config").isString() ||
        !getUnsigned(rv.get("instructions"), &r.instructions) ||
        !getUnsigned(rv.get("annulled"), &r.annulled) ||
        !getUnsigned(rv.get("cycles"), &r.cycles) ||
        !rv.get("clock_hz").isNumber() ||
        !getUnsigned(rv.get("fetch_toggle_bits"), &r.fetchToggleBits) ||
        !getUnsigned(rv.get("fetch_bits_total"), &r.fetchBitsTotal) ||
        !getUnsigned(rv.get("icache_refill_words"),
                     &r.icacheRefillWords) ||
        !getUnsigned(rv.get("dmem_accesses"), &r.dmemAccesses) ||
        !getUnsigned(rv.get("taken_branches"), &r.takenBranches) ||
        !rv.get("outcome").isString() ||
        !rv.get("trap_reason").isString())
        return false;
    r.benchmark = rv.get("benchmark").asString();
    r.config = rv.get("config").asString();
    r.clockHz = rv.get("clock_hz").asNumber();
    if (!parseCacheStatsJson(rv.get("icache"), &r.icache) ||
        !parseCacheStatsJson(rv.get("dcache"), &r.dcache))
        return false;

    const JsonValue &io = rv.get("io");
    if (!io.isObject() || !io.get("console").isString() ||
        !io.get("emitted").isArray())
        return false;
    r.io.console = io.get("console").asString();
    r.io.emitted.clear();
    for (const JsonValue &e : io.get("emitted").asArray())
        if (!getUnsigned(e, &r.io.emitted.emplace_back()))
            return false;

    const JsonValue &fs = rv.get("final_state");
    if (!fs.isObject() || !fs.get("regs").isArray() ||
        !fs.get("flags").isObject() || !fs.get("halted").isBool())
        return false;
    const auto &regs = fs.get("regs").asArray();
    if (regs.size() != sizeof(r.finalState.regs) /
                           sizeof(r.finalState.regs[0]))
        return false;
    for (size_t i = 0; i < regs.size(); ++i)
        if (!getUnsigned(regs[i], &r.finalState.regs[i]))
            return false;
    const JsonValue &flags = fs.get("flags");
    if (!flags.get("n").isBool() || !flags.get("z").isBool() ||
        !flags.get("c").isBool() || !flags.get("v").isBool())
        return false;
    r.finalState.flags.n = flags.get("n").asBool();
    r.finalState.flags.z = flags.get("z").asBool();
    r.finalState.flags.c = flags.get("c").asBool();
    r.finalState.flags.v = flags.get("v").asBool();
    r.finalState.halted = fs.get("halted").asBool();
    if (!parseRunOutcome(rv.get("outcome").asString(), &r.outcome))
        return false;
    r.trapReason = rv.get("trap_reason").asString();

    if (!getUnsigned(v.get("fault_retries"), &result->faultRetries))
        return false;
    result->intervals.clear();
    for (const JsonValue &iv : v.get("intervals").asArray()) {
        if (!iv.isObject())
            return false;
        IntervalSample s;
        static const char *kFields[] = {
            "first_instruction", "instructions",  "cycles",
            "icache_accesses",   "icache_misses", "toggle_bits",
            "fetch_bits"};
        uint64_t *dst[] = {&s.firstInstruction, &s.instructions,
                           &s.cycles,           &s.icacheAccesses,
                           &s.icacheMisses,     &s.toggleBits,
                           &s.fetchBits};
        for (size_t i = 0; i < 7; ++i)
            if (!getUnsigned(iv.get(kFields[i]), dst[i]))
                return false;
        result->intervals.push_back(s);
    }
    result->tracePath = v.get("trace_path").asString();
    return true;
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
encodeResultEntry(const SimCacheKey &key, const SimResult &result)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("schema", kStoreSchema);
    w.key("key");
    writeKeyJson(w, key);
    w.key("result");
    writeSimResultJson(w, result);
    w.endObject();
    std::string line = os.str();
    return line + "\n" + kChecksumTag + hexString(configChecksum(line)) +
           "\n";
}

bool
verifyResultEntry(const std::string &text, SimCacheKey *key,
                  std::string *err)
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
    if (!parseKeyJson(doc.get("key"), key)) {
        if (err)
            *err = "bad entry key";
        return false;
    }
    return true;
}

bool
decodeResultEntry(const std::string &text, SimCacheKey *key,
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
    if (!parseKeyJson(doc.get("key"), key)) {
        if (err)
            *err = "bad entry key";
        return false;
    }
    if (!parseSimResultJson(doc.get("result"), result)) {
        if (err)
            *err = "bad entry result";
        return false;
    }
    return true;
}

} // namespace pfits
