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

std::string
statusResponse(const char *status)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("ok", true);
    w.field("status", status);
    w.endObject();
    return os.str();
}

std::string
hitResponse(const std::string &entry_text)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("ok", true);
    w.field("status", "hit");
    w.field("entry", entry_text);
    w.endObject();
    return os.str();
}

std::string
timeoutResponse()
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("ok", true);
    w.field("status", "timeout");
    w.field("outcome", runOutcomeName(RunOutcome::WatchdogExpired));
    w.endObject();
    return os.str();
}

std::string
unsupportedResponse(const std::string &reason)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("ok", true);
    w.field("status", "unsupported");
    w.field("reason", reason);
    w.endObject();
    return os.str();
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
    unsigned workers = config_.computeThreads ? config_.computeThreads
                                              : 1;
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
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

    {
        std::lock_guard<std::mutex> lock(workMu_);
        workQueue_.clear();
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();

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

void
SvcServer::workerLoop()
{
    if (TraceRecorder *trace = TraceRecorder::current())
        trace->nameThisThread("svc-worker");
    while (true) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(workMu_);
            workCv_.wait(lock, [this] {
                return stop_ || !workQueue_.empty();
            });
            if (stop_ && workQueue_.empty())
                return;
            job = std::move(workQueue_.front());
            workQueue_.pop_front();
        }
        job();
    }
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
    if (op == "sim")
        return handleSim(req);
    if (op == "stats")
        return handleStats();
    return errorResponse("unknown op: " + op);
}

bool
SvcServer::resolveDeadlineMs(const JsonValue &req, int *deadline_ms) const
{
    int d = 0;
    if (req.has("deadline_ms") && !getUnsigned(req.get("deadline_ms"), &d))
        return false;
    *deadline_ms = d > 0 ? d : config_.defaultDeadlineMs;
    return true;
}

SvcServer::Inflight::State
SvcServer::waitInflight(std::shared_ptr<Inflight> infl,
                        int64_t deadline_at)
{
    // The single-flight wait: how long this request parked behind a
    // computation another request already owns.
    TraceSpan span("inflight.wait", "svc");
    std::unique_lock<std::mutex> lock(inflightMu_);
    while (infl->state == Inflight::State::Pending) {
        if (stop_ || nowMs() >= deadline_at)
            return Inflight::State::Pending;
        infl->cv.wait_for(lock, std::chrono::milliseconds(100));
    }
    return infl->state;
}

void
SvcServer::resolveInflight(const SimKey &key,
                           Inflight::State state,
                           const std::string &error)
{
    std::lock_guard<std::mutex> lock(inflightMu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end())
        return;
    it->second->state = state;
    it->second->error = error;
    it->second->cv.notify_all();
    // Waiters hold the shared_ptr; dropping the map entry makes the
    // key claimable again immediately (the store answers repeats).
    inflight_.erase(it);
}

std::string
SvcServer::handleGet(const JsonValue &req)
{
    SimKey key;
    if (!readJsonFields(req.get("key"), key))
        return errorResponse("get: bad key");
    bool wait = req.get("wait").isBool() && req.get("wait").asBool();
    bool lease = req.get("lease").isBool() && req.get("lease").asBool();
    int deadline_ms = 0;
    if (!resolveDeadlineMs(req, &deadline_ms))
        return errorResponse("get: bad deadline_ms");
    int64_t deadline_at = nowMs() + deadline_ms;

    for (;;) {
        std::string entry;
        if (store_->get(key, &entry))
            return hitResponse(entry);

        std::shared_ptr<Inflight> infl;
        {
            std::lock_guard<std::mutex> lock(inflightMu_);
            auto it = inflight_.find(key);
            if (it != inflight_.end()) {
                // A leased slot whose holder went silent is reclaimed
                // so one crashed client cannot wedge the key.
                if (it->second->leased &&
                    nowMs() >= it->second->leaseExpiryMs) {
                    if (TraceRecorder *trace =
                            TraceRecorder::current())
                        trace->instant("lease.reclaim", "svc");
                    it->second->cv.notify_all();
                    inflight_.erase(it);
                } else {
                    infl = it->second;
                }
            }
            if (!infl && lease) {
                auto fresh = std::make_shared<Inflight>();
                fresh->leased = true;
                fresh->leaseExpiryMs = nowMs() + config_.leaseTtlMs;
                inflight_[key] = fresh;
                if (TraceRecorder *trace = TraceRecorder::current())
                    trace->instant("lease.grant", "svc");
                std::ostringstream os;
                JsonWriter w(os, 0);
                w.beginObject();
                w.field("ok", true);
                w.field("status", "miss");
                w.field("lease", true);
                w.endObject();
                return os.str();
            }
        }
        if (!infl || !wait)
            return statusResponse("miss");

        Inflight::State st = waitInflight(infl, deadline_at);
        if (st == Inflight::State::Pending)
            return timeoutResponse();
        // Resolved while we waited: loop to re-read the store (Done),
        // or report the miss (Failed/Unsupported — the caller owns
        // the local fallback).
        if (st != Inflight::State::Done)
            return statusResponse("miss");
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
    resolveInflight(key, Inflight::State::Done);
    return statusResponse("stored");
}

std::string
SvcServer::handleSim(const JsonValue &req)
{
    SimKey key;
    if (!readJsonFields(req.get("key"), key))
        return errorResponse("sim: bad key");
    if (!req.get("bench").isString() || !req.get("isa").isString())
        return errorResponse("sim: missing bench/isa");
    const std::string &bench = req.get("bench").asString();
    const std::string &isa = req.get("isa").asString();
    if (isa != "arm" && isa != "fits")
        return errorResponse("sim: bad isa: " + isa);
    bool is_fits = isa == "fits";

    CoreConfig core;
    if (!readJsonFields(req.get("core"), core))
        return errorResponse("sim: bad core config");
    ObserverSpec spec;
    if (req.has("observers")) {
        const JsonValue &ov = req.get("observers");
        if (!ov.isObject() || !getUnsigned(ov.get("interval_instructions"),
                                           &spec.intervalInstructions))
            return errorResponse("sim: bad observers");
    }
    int deadline_ms = 0;
    if (!resolveDeadlineMs(req, &deadline_ms))
        return errorResponse("sim: bad deadline_ms");
    int64_t deadline_at = nowMs() + deadline_ms;

    for (;;) {
        std::string entry;
        if (store_->get(key, &entry))
            return hitResponse(entry);

        std::shared_ptr<Inflight> infl;
        bool claimed = false;
        {
            std::lock_guard<std::mutex> lock(inflightMu_);
            auto it = inflight_.find(key);
            if (it != inflight_.end()) {
                if (it->second->leased &&
                    nowMs() >= it->second->leaseExpiryMs) {
                    if (TraceRecorder *trace =
                            TraceRecorder::current())
                        trace->instant("lease.reclaim", "svc");
                    it->second->cv.notify_all();
                    inflight_.erase(it);
                } else {
                    infl = it->second;
                }
            }
            if (!infl) {
                infl = std::make_shared<Inflight>();
                inflight_[key] = infl;
                claimed = true;
            }
        }
        if (claimed)
            if (TraceRecorder *trace = TraceRecorder::current())
                trace->instant("singleflight.claim", "svc",
                               TraceArgs().add("bench", bench));
        if (claimed) {
            {
                std::lock_guard<std::mutex> lock(workMu_);
                workQueue_.push_back(
                    [this, key, bench, is_fits, core, spec] {
                        computeJob(key, bench, is_fits, core, spec);
                    });
            }
            workCv_.notify_one();
        }

        Inflight::State st = waitInflight(infl, deadline_at);
        switch (st) {
          case Inflight::State::Pending:
            return timeoutResponse();
          case Inflight::State::Done:
            continue; // re-read the store
          case Inflight::State::Unsupported:
            return unsupportedResponse(infl->error);
          case Inflight::State::Failed:
            return errorResponse("sim failed: " + infl->error);
        }
    }
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

std::shared_ptr<PreparedBench>
SvcServer::preparedFor(const std::string &bench)
{
    // One single flight per bench: benchMu_ only finds or creates the
    // slot, and the slot's own mutex serializes its build, so
    // different benches prepare in parallel and each prepares once. A
    // throwing prepare leaves the slot empty for the next request to
    // retry (a per-slot mutex rather than std::call_once, which hangs
    // on a throwing callable under some libstdc++ targets).
    std::shared_ptr<BenchSlot> slot;
    {
        std::lock_guard<std::mutex> lock(benchMu_);
        std::shared_ptr<BenchSlot> &entry = benchCache_[bench];
        if (!entry)
            entry = std::make_shared<BenchSlot>();
        slot = entry;
    }
    std::lock_guard<std::mutex> lock(slot->mu);
    if (!slot->prep)
        slot->prep = std::make_shared<PreparedBench>(
            prepareBenchmark(bench, ExperimentParams{}));
    return slot->prep;
}

void
SvcServer::computeJob(const SimKey &key, const std::string &bench,
                      bool is_fits, const CoreConfig &core,
                      const ObserverSpec &spec)
{
    // One span per server-side computation, on the worker's lane.
    TraceSpan span("compute", "svc",
                   TraceArgs()
                       .add("bench", bench)
                       .add("isa", is_fits ? "fits" : "arm")
                       .addHex("program", key.program));
    try {
        for (int waited = 0; waited < config_.testComputeDelayMs;
             waited += 50) {
            if (stop_) {
                resolveInflight(key, Inflight::State::Failed,
                                "shutting down");
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }

        std::shared_ptr<PreparedBench> prep;
        try {
            prep = preparedFor(bench);
        } catch (const std::exception &e) {
            resolveInflight(key, Inflight::State::Unsupported,
                            std::string("cannot prepare '") + bench +
                                "': " + e.what());
            return;
        }

        const FrontEnd &fe =
            is_fits ? static_cast<const FrontEnd &>(*prep->fitsFe)
                    : static_cast<const FrontEnd &>(*prep->armFe);

        // The content hashes are the contract: if the daemon's
        // rebuild of the named benchmark (or the requested core or
        // observers) doesn't hash to the requested key, the client is
        // asking for a run this daemon cannot produce — different
        // synthesis parameters, a different suite revision, armed
        // faults (never served: a store entry has no fault tally).
        // Refusing (rather than serving a near-miss) keeps the store
        // content-addressed and the client falls back to local
        // simulation.
        const SimRequest request{.fe = &fe, .core = &core, .spec = spec};
        if (request.key() != key) {
            resolveInflight(key, Inflight::State::Unsupported,
                            "content hash mismatch rebuilding '" +
                                bench + "'");
            return;
        }

        // No in-memory memo here: the store and the single-flight map
        // already answer every repeat of this key.
        SimResult result = runSimulation(request);

        std::string err;
        if (!store_->put(key, encodeResultEntry(key, result), &err)) {
            resolveInflight(key, Inflight::State::Failed,
                            "store put: " + err);
            return;
        }
        resolveInflight(key, Inflight::State::Done);
    } catch (const std::exception &e) {
        resolveInflight(key, Inflight::State::Failed, e.what());
    } catch (...) {
        resolveInflight(key, Inflight::State::Failed,
                        "unknown exception");
    }
}

} // namespace pfits
