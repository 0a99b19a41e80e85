#include "svc/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/frame.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "svc/proto.hh"

namespace pfits
{

namespace
{

void
bumpCounter(const char *name, uint64_t n = 1)
{
    if (MetricRegistry *reg = MetricRegistry::current())
        reg->counter(name).add(n);
}

void
setGauge(const char *name, int64_t v)
{
    if (MetricRegistry *reg = MetricRegistry::current())
        reg->gauge(name).set(v);
}

/** Connect to @p path. @return fd or -1. */
int
connectUnix(const std::string &path, std::string *err)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err)
            *err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }

    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = "socket path too long";
        ::close(fd);
        return -1;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);

    // An AF_UNIX connect() is answered at once (ENOENT, ECONNREFUSED)
    // unless the listener's backlog is full; pfitsd accepts on a
    // dedicated thread with a backlog of 64, so it takes no deadline.
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (err)
            *err = std::string("connect ") + path + ": " +
                   std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * Owns a connection fd and closes it on every exit path it is not
 * handed back on — including the exceptions recvFrame can raise while
 * growing the payload buffer (a bare ::close after the send/recv pair
 * leaks the descriptor the moment either leg throws, and the Runner
 * fans thousands of requests over one process).
 */
struct ScopedFd
{
    int fd;
    explicit ScopedFd(int f) : fd(f) {}
    ~ScopedFd()
    {
        if (fd >= 0)
            ::close(fd);
    }
    ScopedFd(const ScopedFd &) = delete;
    ScopedFd &operator=(const ScopedFd &) = delete;
};

/** A request frame that is only its @p op. */
std::string
opRequest(const char *op)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("schema", kSvcSchema);
    w.field("op", op);
    w.endObject();
    return os.str();
}

/**
 * The "put" frame publishing @p result under run identity @p id, tagged
 * with @p trace_id when it is not 0. The entry's run.config is blank:
 * it depends on its identity only, whichever core computed it.
 */
std::string
putRequest(const SimKey &id, SimResult result, uint64_t trace_id = 0)
{
    result.run.config.clear();
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("schema", kSvcSchema);
    if (trace_id)
        w.field("trace", hexString(trace_id));
    w.field("op", "put");
    w.field("entry", encodeResultEntry(id, result));
    w.endObject();
    return os.str();
}

/** @p text parsed as JSON; null when it is not JSON. */
JsonValue
parseResponse(const std::string &text)
{
    try {
        return JsonValue::parse(text);
    } catch (const FatalError &) {
        return {};
    }
}

/** Response @p v's "error" text, or @p otherwise when it has none. */
const char *
errorText(const JsonValue &v, const char *otherwise)
{
    return v.isObject() && v.get("error").isString()
               ? v.get("error").asString().c_str()
               : otherwise;
}

int64_t
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

SvcClientConfig
SvcClientConfig::fromEnv()
{
    SvcClientConfig cfg;
    if (const char *path = std::getenv("PFITS_DAEMON"))
        cfg.socketPath = path;
    if (const char *t = std::getenv("PFITS_DAEMON_TIMEOUT_MS")) {
        int v = std::atoi(t);
        if (v > 0)
            cfg.requestTimeoutMs = v;
    }
    if (const char *r = std::getenv("PFITS_DAEMON_RETRIES")) {
        int v = std::atoi(r);
        if (v >= 0)
            cfg.maxRetries = static_cast<unsigned>(v);
    }
    return cfg;
}

SvcClient::SvcClient(SvcClientConfig config)
    : config_(std::move(config)), rng_(config_.jitterSeed)
{
}

SvcClient::~SvcClient()
{
    for (int fd : idle_)
        ::close(fd);
}

int
SvcClient::backoffDelayMs(unsigned attempt)
{
    int64_t base = config_.backoffBaseMs;
    for (unsigned i = 0; i < attempt && base < config_.backoffMaxMs;
         ++i)
        base *= 2;
    if (base > config_.backoffMaxMs)
        base = config_.backoffMaxMs;
    std::lock_guard<std::mutex> lock(rngMu_);
    // Full jitter: uniform in [1, base] decorrelates clients that all
    // lost the same daemon at the same moment.
    return 1 + static_cast<int>(
                   rng_.below(static_cast<uint32_t>(base)));
}

bool
SvcClient::attempt(const std::string &request, std::string *response,
                   int budget_ms, std::string *err)
{
    const auto start = std::chrono::steady_clock::now();
    // Each leg runs against what is left of the budget, and always
    // keeps at least a one-millisecond slice so a response already
    // sitting in the socket buffer is still read.
    auto left = [&] {
        return std::max(1, budget_ms - static_cast<int>(elapsedMs(start)));
    };
    // The receive leg outlives the budget by a grace period: the
    // server enforces deadlines in coarse wait slices, so its
    // structured "timeout" (watchdog-expired) response lands shortly
    // *after* the deadline — with equal timeouts the client would
    // always hang up first and misread an orderly server-side expiry
    // as a dead transport.
    constexpr int kDeadlineGraceMs = 500;
    auto exchange = [&](int fd) {
        ScopedFd conn(fd);
        if (!sendFrame(conn.fd, request, left(), err) ||
            !recvFrame(conn.fd, response, left() + kDeadlineGraceMs,
                       err))
            return false;
        std::lock_guard<std::mutex> lock(idleMu_);
        idle_.push_back(conn.fd);
        conn.fd = -1;
        return true;
    };

    int fd = -1;
    {
        std::lock_guard<std::mutex> lock(idleMu_);
        if (!idle_.empty()) {
            fd = idle_.back();
            idle_.pop_back();
        }
    }
    if (fd >= 0) {
        if (exchange(fd))
            return true;
        // The daemon closed this connection since its last round trip
        // (it restarted, say): not a transport failure, so no retry
        // is counted and no backoff is slept before a fresh one.
        if (!peerClosed(*err))
            return false;
    }
    fd = connectUnix(config_.socketPath, err);
    if (fd < 0)
        return false;
    bumpCounter("svc.connects");
    return exchange(fd);
}

bool
SvcClient::roundTrip(const std::string &request, std::string *response)
{
    // requestTimeoutMs is the caller's budget for the WHOLE round
    // trip, retries and backoff sleeps included — each attempt runs
    // against the budget's remainder, a backoff sleep never crosses
    // the deadline, and an exhausted budget ends the loop even with
    // retries left. Total wall time is bounded by the budget plus the
    // receive grace of the last armed attempt; without the accounting
    // a slow-failing transport costs (retries + 1) full timeouts plus
    // the full backoff ladder before the local fallback starts.
    const auto start = std::chrono::steady_clock::now();
    const int64_t budget = config_.requestTimeoutMs;
    std::string err;
    for (unsigned attempt_no = 0;; ++attempt_no) {
        // The first attempt always runs with the full budget; only
        // retries are clipped to what the earlier attempts left over.
        int64_t remaining =
            attempt_no == 0 ? budget : budget - elapsedMs(start);
        if (remaining < 1)
            break;
        if (attempt(request, response,
                    static_cast<int>(std::min<int64_t>(
                        remaining, config_.requestTimeoutMs)),
                    &err))
            return true;
        if (attempt_no >= config_.maxRetries)
            break;
        remaining = budget - elapsedMs(start);
        if (remaining <= 1)
            break;
        int delay = backoffDelayMs(attempt_no);
        if (delay >= remaining)
            delay = static_cast<int>(remaining - 1);
        bumpCounter("svc.retries");
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    warn_once("pfitsd unreachable at %s (%s); running locally",
              config_.socketPath.c_str(), err.c_str());
    return false;
}

bool
SvcClient::ping()
{
    std::string response, err;
    if (!attempt(opRequest("hello"), &response, config_.requestTimeoutMs,
                 &err))
        return false;
    try {
        JsonValue v = JsonValue::parse(response);
        return v.isObject() && v.get("ok").isBool() &&
               v.get("ok").asBool() &&
               v.get("schema").isString() &&
               v.get("schema").asString() == kSvcSchema;
    } catch (const FatalError &) {
        return false;
    }
}

void
SvcClient::recordServerStats()
{
    std::string response, err;
    if (!attempt(opRequest("stats"), &response, config_.requestTimeoutMs,
                 &err))
        return;
    try {
        JsonValue v = JsonValue::parse(response);
        if (!v.isObject() || !v.get("store").isObject())
            return;
        const JsonValue &store = v.get("store");
        int64_t value = 0;
        if (getUnsigned(store.get("evictions"), &value))
            setGauge("svc.store.evictions", value);
        if (getUnsigned(store.get("quarantined"), &value))
            setGauge("svc.store.quarantined", value);
    } catch (const FatalError &) {
    }
}

SimResult
SvcClient::computeLeased(const SimRequest &request, const SimKey &id,
                         uint64_t trace_id)
{
    SimResult result = SimCache::runLocal(request);
    // Other clients may be waiting on this lease, so the put gets a
    // request's retries, not tryPut's single attempt.
    std::string response;
    bool round_trip_ok;
    {
        TraceSpan span("svc.request", "svc",
                       TraceArgs()
                           .add("op", "put")
                           .add("bench", request.bench)
                           .addHex("trace", trace_id));
        round_trip_ok =
            roundTrip(putRequest(id, result, trace_id), &response);
    }
    const JsonValue v = parseResponse(round_trip_ok ? response : "");
    if (!v.isObject() || !v.get("status").isString() ||
        v.get("status").asString() != "stored")
        warn_once("pfitsd: a computed result was not stored (%s)",
                  errorText(v, "no stored response"));
    return result;
}

void
SvcClient::tryPut(const SimKey &id, const SimResult &result)
{
    std::string response, err;
    // One attempt, no retries: populating the shared store is a
    // favor to future runs, never worth stalling this one.
    (void)attempt(putRequest(id, result), &response,
                  config_.requestTimeoutMs, &err);
}

SimResult
SvcClient::fallback(const SimRequest &request, const SimKey &id,
                    bool try_put)
{
    bumpCounter("svc.fallbacks");
    SimResult result = SimCache::runLocal(request);
    if (try_put)
        tryPut(id, result);
    return result;
}

SimResult
SvcClient::simulate(const SimRequest &request)
{
    // Trace-armed runs write JSONL files as a side effect; those are
    // local products a remote daemon cannot produce on this
    // filesystem, so they bypass the daemon entirely. Chip and
    // fault-armed runs bypass it too: a store entry carries neither
    // the ChipRunStats nor the fault tally of a result, so those
    // requests always simulate locally.
    if (!config_.enabled() || request.spec.traceArmed() ||
        !request.chip.isDefault() || request.faults.enabled())
        return localSimService().simulate(request);

    // Through the process's SimCache: a key already answered is a hit,
    // a size variant of an answered run shares it in-process, and
    // concurrent requests for one run wait for one round trip.
    return SimCache::instance().simulate(
        request, [this](const SimRequest &req) { return fetch(req); });
}

SimResult
SvcClient::fetch(const SimRequest &request)
{
    const SimKey id = request.runIdentity(request.key());
    bumpCounter("svc.requests");

    // A fresh trace id, generated only when a recorder is installed
    // and propagated as the optional "trace" wire field: the daemon
    // tags its request-lifecycle spans with the same id, so a client
    // trace and the daemon's trace join on it after the fact. Servers
    // ignore unknown request fields, so old daemons are unaffected.
    TraceRecorder *trace = TraceRecorder::current();
    const uint64_t trace_id = trace ? trace->newTraceId() : 0;

    // The store's entry, or a lease to compute and put it; a run
    // another client holds the lease on waits for that client's put.
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("schema", kSvcSchema);
    if (trace_id)
        w.field("trace", hexString(trace_id));
    w.field("op", "get");
    w.key("key");
    writeJsonFields(w, id);
    w.field("wait", true);
    w.field("lease", true);
    w.field("deadline_ms",
            static_cast<int64_t>(config_.requestTimeoutMs));
    w.endObject();

    std::string response;
    bool round_trip_ok;
    {
        // The span brackets the whole wire exchange, retries and
        // backoff included; its "trace" arg is what joins it to the
        // daemon-side "svc.request" span carrying the same id.
        TraceSpan span("svc.request", "svc",
                       TraceArgs()
                           .add("op", "get")
                           .add("bench", request.bench)
                           .addHex("trace", trace_id));
        round_trip_ok = roundTrip(os.str(), &response);
    }
    if (!round_trip_ok)
        return fallback(request, id, /*try_put=*/false);

    const JsonValue v = parseResponse(response);
    if (!v.isObject() || !v.get("ok").isBool() || !v.get("ok").asBool()) {
        warn_once("pfitsd: %s; running locally",
                  errorText(v, "malformed response"));
        return fallback(request, id, /*try_put=*/true);
    }

    const std::string status = v.get("status").isString()
                                   ? v.get("status").asString()
                                   : "";
    if (status == "hit" && v.get("entry").isString()) {
        SimKey got;
        SimResult result;
        std::string err;
        if (!decodeResultEntry(v.get("entry").asString(), &got,
                               &result, &err) ||
            got != id) {
            // A corrupt or mis-keyed entry survived the daemon's own
            // verification — treat the daemon as untrusted for this
            // request and recompute; local results are authoritative.
            warn_once("pfitsd: bad store entry (%s); running locally",
                      err.empty() ? "key mismatch" : err.c_str());
            return fallback(request, id, /*try_put=*/true);
        }
        bumpCounter("svc.store.hits");
        result.run.config = request.core->name;
        return result;
    }
    if (status == "miss") {
        // Leased to this client: simulate here and publish the entry.
        bumpCounter("svc.store.misses");
        return computeLeased(request, id, trace_id);
    }
    if (status == "timeout") {
        // The daemon answered "watchdog-expired": the deadline passed
        // with another client's lease still open. That client will
        // put the entry; meanwhile this run computes locally.
        bumpCounter("svc.timeouts");
        return fallback(request, id, /*try_put=*/false);
    }
    warn_once("pfitsd: unexpected status '%s'; running locally",
              status.c_str());
    return fallback(request, id, /*try_put=*/true);
}

} // namespace pfits
