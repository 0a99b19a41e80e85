#include "svc/server.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>

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
    runs_.clear();
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
SvcServer::resolveDeadline(const JsonValue &req, int64_t *deadline_at) const
{
    int d = 0;
    if (req.has("deadline_ms") && !getUnsigned(req.get("deadline_ms"), &d))
        return false;
    *deadline_at = nowMs() + (d > 0 ? d : config_.defaultDeadlineMs);
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
                           const std::string &text)
{
    std::lock_guard<std::mutex> lock(inflightMu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end())
        return;
    it->second->state = state;
    it->second->text = text;
    it->second->cv.notify_all();
    // Waiters hold the shared_ptr; dropping the map entry makes the
    // key claimable again immediately (the store answers repeats).
    inflight_.erase(it);
}

std::shared_ptr<SvcServer::Inflight>
SvcServer::findInflightLocked(const SimKey &key)
{
    auto it = inflight_.find(key);
    if (it == inflight_.end())
        return nullptr;
    // A leased slot whose holder went silent is reclaimed so one
    // crashed client cannot wedge the key.
    if (!it->second->leased || nowMs() < it->second->leaseExpiryMs)
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

    std::string entry;
    if (store_->get(key, &entry))
        return hitResponse(entry);

    std::shared_ptr<Inflight> infl;
    {
        std::lock_guard<std::mutex> lock(inflightMu_);
        infl = findInflightLocked(key);
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

    // Resolved while we waited: answer with the landed entry (Done),
    // or report the miss (Failed/Unsupported — the caller owns the
    // local fallback).
    switch (waitInflight(infl, deadline_at)) {
      case Inflight::State::Pending:
        return timeoutResponse();
      case Inflight::State::Done:
        return hitResponse(infl->text);
      default:
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
    resolveInflight(key, Inflight::State::Done, entry);
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
    int64_t deadline_at = 0;
    if (!resolveDeadline(req, &deadline_at))
        return errorResponse("sim: bad deadline_ms");

    std::string entry;
    if (store_->get(key, &entry))
        return hitResponse(entry);

    std::shared_ptr<Inflight> infl;
    bool claimed = false;
    {
        std::lock_guard<std::mutex> lock(inflightMu_);
        infl = findInflightLocked(key);
        if (!infl) {
            infl = std::make_shared<Inflight>();
            inflight_[key] = infl;
            claimed = true;
        }
    }
    if (claimed) {
        if (TraceRecorder *trace = TraceRecorder::current())
            trace->instant("singleflight.claim", "svc",
                           TraceArgs().add("bench", bench));
        enqueue({key, bench, is_fits, core, spec});
    }

    // The computing job hands its entry over in the slot, so a
    // computed key costs no store read.
    switch (waitInflight(infl, deadline_at)) {
      case Inflight::State::Pending:
        return timeoutResponse();
      case Inflight::State::Done:
        return hitResponse(infl->text);
      case Inflight::State::Unsupported:
        return statusResponse("unsupported", "reason", infl->text);
      case Inflight::State::Failed:
        break;
    }
    return errorResponse("sim failed: " + infl->text);
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

void
SvcServer::enqueue(SimJob job)
{
    {
        std::lock_guard<std::mutex> lock(workMu_);
        if (stop_)
            return; // its waiters time out on the stop
        workQueue_.push_back(
            [this, job = std::move(job)] { computeJob(job); });
    }
    workCv_.notify_one();
}

void
SvcServer::endRun(const SimKey &identity, const SimKey *stored)
{
    std::vector<SimJob> parked;
    {
        std::lock_guard<std::mutex> lock(runsMu_);
        auto it = runs_.find(identity);
        if (it == runs_.end())
            return;
        parked = std::move(it->second.parked);
        if (stored) {
            it->second.computing = false;
            it->second.stored = *stored;
        } else {
            runs_.erase(it);
        }
    }
    // Each parked job runs again: it shares the stored run, or finds
    // the identity unclaimed and simulates its own request.
    for (SimJob &job : parked)
        enqueue(std::move(job));
}

void
SvcServer::computeJob(const SimJob &job)
{
    const SimKey &key = job.key;
    // One span per server-side computation, on the worker's lane.
    TraceSpan span("compute", "svc",
                   TraceArgs()
                       .add("bench", job.bench)
                       .add("isa", job.isFits ? "fits" : "arm")
                       .addHex("program", key.program));
    SimKey identity;
    bool owns_run = false; // this job claimed identity's simulation
    try {
        std::shared_ptr<PreparedBench> prep;
        try {
            // Different benches prepare in parallel and each prepares
            // once; a throwing prepare leaves nothing behind, so the
            // next request retries.
            prep = benchCache_.get(job.bench, [&] {
                return std::make_shared<PreparedBench>(
                    prepareBenchmark(job.bench, ExperimentParams{}));
            });
        } catch (const std::exception &e) {
            resolveInflight(key, Inflight::State::Unsupported,
                            std::string("cannot prepare '") + job.bench +
                                "': " + e.what());
            return;
        }

        const FrontEnd &fe =
            job.isFits ? static_cast<const FrontEnd &>(*prep->fitsFe)
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
        const SimRequest request{
            .fe = &fe, .core = &job.core, .spec = job.spec};
        if (request.key() != key) {
            resolveInflight(key, Inflight::State::Unsupported,
                            "content hash mismatch rebuilding '" +
                                job.bench + "'");
            return;
        }

        // One simulation per run identity. A stored completed run
        // answers this key; a run being simulated parks this job; an
        // unknown identity (or one whose entry was evicted or
        // quarantined since) is this job's to simulate.
        identity = request.runIdentity(key);
        SimResult result;
        for (;;) {
            SimKey stored;
            {
                std::lock_guard<std::mutex> lock(runsMu_);
                auto [it, fresh] = runs_.try_emplace(identity);
                if (fresh) {
                    owns_run = true;
                    break;
                }
                if (it->second.computing) {
                    it->second.parked.push_back(job);
                    return; // the worker goes back to the pool
                }
                stored = it->second.stored;
            }
            std::string text;
            SimKey stored_key;
            if (store_->peek(stored, &text) &&
                decodeResultEntry(text, &stored_key, &result, nullptr))
                break;
            std::lock_guard<std::mutex> lock(runsMu_);
            auto it = runs_.find(identity);
            if (it != runs_.end() && !it->second.computing &&
                it->second.stored == stored)
                runs_.erase(it);
        }

        if (owns_run) {
            for (int waited = 0; waited < config_.testComputeDelayMs;
                 waited += 50) {
                if (stop_)
                    throw std::runtime_error("shutting down");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            }
            result = runSimulation(request);
        } else {
            // As SimCache::run answers a shared request.
            result.run.config = job.core.name;
            if (MetricRegistry *metrics = MetricRegistry::current())
                metrics->counter("svc.shared").add();
            if (TraceRecorder *trace = TraceRecorder::current())
                trace->instant("svc.shared", "svc",
                               TraceArgs()
                                   .addHex("program", key.program)
                                   .add("config", job.core.name));
        }

        const std::string entry = encodeResultEntry(key, result);
        std::string err;
        const bool put = store_->put(key, entry, &err);
        if (owns_run) {
            // Trap and watchdog messages name the core that ran, so
            // only a completed run answers another key.
            const bool shareable =
                put && result.run.outcome == RunOutcome::Completed;
            endRun(identity, shareable ? &key : nullptr);
            owns_run = false;
        }
        if (!put) {
            resolveInflight(key, Inflight::State::Failed,
                            "store put: " + err);
            return;
        }
        resolveInflight(key, Inflight::State::Done, entry);
    } catch (const std::exception &e) {
        if (owns_run)
            endRun(identity, nullptr);
        resolveInflight(key, Inflight::State::Failed, e.what());
    } catch (...) {
        if (owns_run)
            endRun(identity, nullptr);
        resolveInflight(key, Inflight::State::Failed,
                        "unknown exception");
    }
}

} // namespace pfits
