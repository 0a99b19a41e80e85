#include "svc/server.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "svc/proto.hh"

namespace pfits
{

namespace
{

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
errorResponse(const std::string &message)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("ok", false);
    w.field("error", message);
    w.endObject();
    return os.str();
}

/**
 * {"ok":true,"status":@p status}, and the string field @p name set to
 * @p value when a name is given.
 */
std::string
statusResponse(const char *status, const char *name = nullptr,
               const std::string &value = "")
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("ok", true);
    w.field("status", status);
    if (name)
        w.field(name, value);
    w.endObject();
    return os.str();
}

std::string
hitResponse(const std::string &entry_text)
{
    return statusResponse("hit", "entry", entry_text);
}

/** A miss that grants the requester the key's lease. */
std::string
leaseResponse()
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("ok", true);
    w.field("status", "miss");
    w.field("lease", true);
    w.endObject();
    return os.str();
}

std::string
timeoutResponse()
{
    return statusResponse("timeout", "outcome",
                          runOutcomeName(RunOutcome::WatchdogExpired));
}

} // namespace

SvcServer::SvcServer(SvcServerConfig config)
    : config_(std::move(config))
{
}

SvcServer::~SvcServer()
{
    stop();
}

bool
SvcServer::start(std::string *err)
{
    if (running_)
        return true;

    store_ = std::make_unique<ResultStore>(config_.storeDir,
                                           config_.storeMaxBytes);
    if (!store_->open(err))
        return false;

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (err)
            *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }

    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (config_.socketPath.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = "socket path too long: " + config_.socketPath;
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 64) != 0) {
        if (err)
            *err = "bind/listen " + config_.socketPath + ": " +
                   std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }

    stop_ = false;
    startMs_ = nowMs();
    acceptThread_ = std::thread([this] { acceptLoop(); });
    running_ = true;
    return true;
}

void
SvcServer::stop()
{
    if (!running_)
        return;
    stop_ = true;

    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    ::unlink(config_.socketPath.c_str());

    {
        // Kick every parked connection out of its blocking read.
        std::lock_guard<std::mutex> lock(connMu_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    {
        std::lock_guard<std::mutex> lock(inflightMu_);
        for (auto &kv : inflight_)
            kv.second->cv.notify_all();
    }
    for (auto &kv : connThreads_)
        if (kv.second.joinable())
            kv.second.join();
    connThreads_.clear();
    connDone_.clear();

    inflight_.clear();
    running_ = false;
}

void
SvcServer::acceptLoop()
{
    while (!stop_) {
        reapConnections(); // on every accept and every idle poll tick
        struct pollfd pfd;
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        pfd.revents = 0;
        int pr = ::poll(&pfd, 1, 200);
        if (pr <= 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        std::lock_guard<std::mutex> lock(connMu_);
        if (stop_) {
            ::close(fd);
            break;
        }
        connFds_.insert(fd);
        const uint64_t serial = connSerial_++;
        connThreads_.emplace(serial, std::thread([this, fd, serial] {
                                 connectionLoop(fd, serial);
                             }));
    }
}

void
SvcServer::reapConnections()
{
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        for (uint64_t serial : connDone_) {
            auto it = connThreads_.find(serial);
            done.push_back(std::move(it->second));
            connThreads_.erase(it);
        }
        connDone_.clear();
    }
    // Each of these has left connectionLoop; join outside the lock.
    for (std::thread &t : done)
        t.join();
}

size_t
SvcServer::connectionThreads()
{
    std::lock_guard<std::mutex> lock(connMu_);
    return connThreads_.size();
}

void
SvcServer::connectionLoop(int fd, uint64_t serial)
{
    if (TraceRecorder *trace = TraceRecorder::current())
        trace->nameThisThread("svc-conn");
    while (!stop_) {
        std::string payload, err;
        if (!recvFrame(fd, &payload, 0, &err))
            break; // EOF, peer error, or shutdown() from stop()
        std::string response;
        try {
            response = handleRequest(payload);
        } catch (const std::exception &e) {
            // A malformed or unlucky request must never take the
            // daemon down; the client sees a structured error and
            // falls back to local simulation.
            response = errorResponse(e.what());
        }
        if (!sendFrame(fd, response, 30'000, &err))
            break;
    }
    {
        std::lock_guard<std::mutex> lock(connMu_);
        connFds_.erase(fd);
        connDone_.push_back(serial);
    }
    ::close(fd);
}

std::string
SvcServer::handleRequest(const std::string &payload)
{
    JsonValue req;
    try {
        req = JsonValue::parse(payload);
    } catch (const FatalError &e) {
        return errorResponse(std::string("bad request JSON: ") +
                             e.what());
    }
    if (!req.isObject() || !req.get("op").isString())
        return errorResponse("request missing op");
    if (req.has("schema") &&
        (!req.get("schema").isString() ||
         req.get("schema").asString() != kSvcSchema))
        return errorResponse("unsupported schema");

    const std::string &op = req.get("op").asString();

    // Request-lifecycle span, tagged with the client's propagated
    // trace id (the optional "trace" wire field) so a daemon-side
    // trace file joins against the client's timeline after the fact.
    uint64_t trace_id = 0;
    if (TraceRecorder::current() && req.get("trace").isString())
        (void)parseHexU64(req.get("trace").asString(), &trace_id);
    TraceSpan request_span("svc.request", "svc",
                           TraceArgs().add("op", op).addHex("trace",
                                                            trace_id));

    if (op == "hello") {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject();
        w.field("ok", true);
        w.field("schema", kSvcSchema);
        w.field("server", "pfitsd");
        w.field("pid", static_cast<int64_t>(::getpid()));
        w.endObject();
        return os.str();
    }
    if (op == "get")
        return handleGet(req);
    if (op == "put")
        return handlePut(req);
    if (op == "stats")
        return handleStats();
    return errorResponse("unknown op: " + op);
}

bool
SvcServer::resolveDeadline(const JsonValue &req, int64_t *deadline_at) const
{
    int d = 0;
    if (req.has("deadline_ms") && !getUnsigned(req.get("deadline_ms"), &d))
        return false;
    *deadline_at = nowMs() + (d > 0 ? d : config_.defaultDeadlineMs);
    return true;
}

bool
SvcServer::waitInflight(const std::shared_ptr<Inflight> &infl,
                        int64_t deadline_at)
{
    // The single-flight wait: how long this request parked behind a
    // lease another client holds.
    TraceSpan span("inflight.wait", "svc");
    std::unique_lock<std::mutex> lock(inflightMu_);
    while (!infl->done) {
        const int64_t now = nowMs();
        if (stop_ || now >= deadline_at || now >= infl->leaseExpiryMs)
            return false;
        infl->cv.wait_for(lock, std::chrono::milliseconds(100));
    }
    return true;
}

std::shared_ptr<SvcServer::Inflight>
SvcServer::findInflightLocked(const SimKey &key)
{
    auto it = inflight_.find(key);
    if (it == inflight_.end())
        return nullptr;
    // A lease whose holder went silent is reclaimed so one crashed
    // client cannot wedge the key.
    if (nowMs() < it->second->leaseExpiryMs)
        return it->second;
    if (TraceRecorder *trace = TraceRecorder::current())
        trace->instant("lease.reclaim", "svc");
    it->second->cv.notify_all();
    inflight_.erase(it);
    return nullptr;
}

std::string
SvcServer::handleGet(const JsonValue &req)
{
    SimKey key;
    if (!readJsonFields(req.get("key"), key))
        return errorResponse("get: bad key");
    bool wait = req.get("wait").isBool() && req.get("wait").asBool();
    bool lease = req.get("lease").isBool() && req.get("lease").asBool();
    int64_t deadline_at = 0;
    if (!resolveDeadline(req, &deadline_at))
        return errorResponse("get: bad deadline_ms");

    for (;;) {
        std::string entry;
        if (store_->get(key, &entry))
            return hitResponse(entry);

        std::shared_ptr<Inflight> infl;
        {
            std::lock_guard<std::mutex> lock(inflightMu_);
            infl = findInflightLocked(key);
            if (!infl && lease) {
                auto fresh = std::make_shared<Inflight>();
                fresh->leaseExpiryMs = nowMs() + config_.leaseTtlMs;
                inflight_[key] = fresh;
                if (TraceRecorder *trace = TraceRecorder::current())
                    trace->instant("lease.grant", "svc");
                return leaseResponse();
            }
        }
        if (!infl || !wait)
            return statusResponse("miss");

        // The holder's put hands its entry over in the slot, so a
        // waiter costs no store read.
        if (waitInflight(infl, deadline_at))
            return hitResponse(infl->entry);
        if (stop_ || nowMs() >= deadline_at)
            return timeoutResponse();
        // The holder's lease expired first: ask again, to take it over.
    }
}

std::string
SvcServer::handlePut(const JsonValue &req)
{
    if (!req.get("entry").isString())
        return errorResponse("put: missing entry");
    const std::string &entry = req.get("entry").asString();

    SimKey key;
    std::string err;
    if (!verifyResultEntry(entry, &key, &err))
        return errorResponse("put: " + err);
    if (!store_->put(key, entry, &err))
        return errorResponse("put: " + err);
    {
        std::lock_guard<std::mutex> lock(inflightMu_);
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            it->second->done = true;
            it->second->entry = entry;
            it->second->cv.notify_all();
            // Waiters hold the shared_ptr; the store answers repeats.
            inflight_.erase(it);
        }
    }
    return statusResponse("stored");
}

std::string
SvcServer::handleStats()
{
    // The live-introspection snapshot behind `pfits_report stats
    // --daemon=SOCK`: store counters, single-flight occupancy, uptime,
    // and — when the daemon runs with a MetricRegistry installed
    // (pfitsd_main always installs one) — the full engine metric
    // surface, percentiles included.
    StoreStats s = store_->stats();
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("ok", true);
    w.field("schema", kSvcSchema);
    w.field("uptime_ms", static_cast<int64_t>(nowMs() - startMs_));
    w.key("store");
    w.beginObject();
    w.field("entries", s.entries);
    w.field("bytes", s.bytes);
    w.field("hits", s.hits);
    w.field("misses", s.misses);
    w.field("evictions", s.evictions);
    w.field("quarantined", s.quarantined);
    w.endObject();
    {
        std::lock_guard<std::mutex> lock(inflightMu_);
        w.field("inflight", static_cast<uint64_t>(inflight_.size()));
    }
    if (MetricRegistry *metrics = MetricRegistry::current()) {
        w.key("metrics");
        metrics->writeJson(w);
    }
    w.endObject();
    return os.str();
}

} // namespace pfits
