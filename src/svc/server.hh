/**
 * @file
 * pfitsd's serving half: an embeddable Unix-domain-socket server over
 * the ResultStore. The daemon stores results; it never simulates. A
 * client that misses computes the run itself, under a lease, and puts
 * the entry back (SvcClient).
 *
 * The daemon binary (pfitsd_main.cc) is a thin flag-parsing wrapper
 * around this class; the tests embed it directly so server and client
 * can be exercised in one process. One thread accepts connections, and
 * one thread per connection speaks the framed pfits-svc-v1 protocol.
 *
 * Request-level guarantees:
 *  - single-flight leases: a get over a missing key may ask for a
 *    lease, a promise that the client will compute and put; while the
 *    lease is held, other gets for the key wait for that put and are
 *    answered with its entry, so a key is computed once across
 *    clients,
 *  - deadlines: every wait is bounded by the request's deadline_ms (or
 *    the server default); an expired deadline gets a "timeout"
 *    response carrying outcome "watchdog-expired" — the same
 *    RunOutcome::WatchdogExpired vocabulary the Machine's runaway
 *    guard uses,
 *  - lease expiry: a lease older than leaseTtlMs is granted again, to
 *    a request waiting on it or to the next one that asks, so a
 *    crashed holder cannot wedge other requesters.
 */

#ifndef POWERFITS_SVC_SERVER_HH
#define POWERFITS_SVC_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "svc/store.hh"

namespace pfits
{

class JsonValue;

/** Everything configurable about a pfitsd instance. */
struct SvcServerConfig
{
    std::string socketPath = "pfitsd.sock";
    std::string storeDir = "pfitsd-store";
    uint64_t storeMaxBytes = 0;   //!< LRU eviction budget; 0 = unbounded
    int leaseTtlMs = 30'000;      //!< crashed-lease-holder recovery
    int defaultDeadlineMs = 60'000; //!< used when a request sends none
};

/** The embeddable pfitsd server. */
class SvcServer
{
  public:
    explicit SvcServer(SvcServerConfig config);
    ~SvcServer();

    SvcServer(const SvcServer &) = delete;
    SvcServer &operator=(const SvcServer &) = delete;

    /**
     * Open (and recover) the store, bind the socket, and start the
     * accept thread. @return false with @p err on environmental
     * failure.
     */
    bool start(std::string *err = nullptr);

    /** Stop accepting, drain connections, close the store. */
    void stop();

    bool running() const { return running_; }

    const SvcServerConfig &config() const { return config_; }

    /** The store (valid between start() and stop()); test access. */
    ResultStore &store() { return *store_; }

    /** Connection threads not yet joined; test access. */
    size_t connectionThreads();

  private:
    /** One leased key: its holder's put wakes the waiters. */
    struct Inflight
    {
        bool done = false;   //!< the put landed; entry is set
        int64_t leaseExpiryMs = 0;
        std::string entry; //!< the put entry, answered to waiters
        std::condition_variable cv;
    };

    void acceptLoop();
    void connectionLoop(int fd, uint64_t serial);
    /** Join the connection threads that have finished. */
    void reapConnections();

    std::string handleRequest(const std::string &payload);
    std::string handleGet(const JsonValue &req);
    std::string handlePut(const JsonValue &req);
    std::string handleStats();

    /**
     * Block until @p infl is put, or @p deadline_at (ms, monotonic) or
     * its lease expiry passes. @return false on either, or on shutdown.
     */
    bool waitInflight(const std::shared_ptr<Inflight> &infl,
                      int64_t deadline_at);

    /**
     * The lease on @p key, or null when there is none or it expired
     * (the slot is then reclaimed). inflightMu_ held.
     */
    std::shared_ptr<Inflight> findInflightLocked(const SimKey &key);

    /**
     * When the request expires (ms, monotonic): now plus its
     * "deadline_ms" when positive, plus the server default when it is
     * absent or 0. @return false when it is present but not an integer
     * in [0, INT_MAX].
     */
    bool resolveDeadline(const JsonValue &req, int64_t *deadline_at) const;

    SvcServerConfig config_;
    std::unique_ptr<ResultStore> store_;

    int listenFd_ = -1;
    std::atomic<bool> stop_{false};
    bool running_ = false;
    int64_t startMs_ = 0; //!< steady-clock ms at start(); stats uptime

    std::thread acceptThread_;
    std::mutex connMu_;
    //! Live connection threads by serial. A finished thread parks its
    //! serial in connDone_ and the accept loop joins it, so clients that
    //! open a connection per request do not pile up dead stacks.
    std::map<uint64_t, std::thread> connThreads_;
    std::vector<uint64_t> connDone_;
    uint64_t connSerial_ = 0;
    std::set<int> connFds_; //!< open sockets, shutdown() on stop

    std::mutex inflightMu_; //!< guards inflight_ and every Inflight
    std::map<SimKey, std::shared_ptr<Inflight>> inflight_;
};

} // namespace pfits

#endif // POWERFITS_SVC_SERVER_HH
