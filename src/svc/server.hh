/**
 * @file
 * pfitsd's serving half: an embeddable Unix-domain-socket server over
 * the ResultStore and the simulation engine.
 *
 * The daemon binary (pfitsd_main.cc) is a thin flag-parsing wrapper
 * around this class; the tests embed it directly so server and client
 * can be exercised in one process. One thread accepts connections,
 * one thread per connection speaks the framed pfits-svc-v1 protocol,
 * and a small worker pool runs the actual simulations so a slow
 * compute never blocks the protocol loop.
 *
 * Request-level guarantees:
 *  - single-flight: concurrent requests for one key simulate once;
 *    later arrivals wait on the first computation's completion,
 *  - one simulation per run identity (SimRequest::runIdentity, the
 *    rule SimCache shares by): a key whose run is already stored under
 *    another key is answered from that entry, renamed to its own core;
 *    a compute job whose run is still being simulated parks until it
 *    lands instead of holding a worker,
 *  - deadlines: every waiting path is bounded by the request's
 *    deadline_ms (or the server default); an expired deadline gets a
 *    "timeout" response carrying outcome "watchdog-expired" — the
 *    same RunOutcome::WatchdogExpired vocabulary the Machine's
 *    runaway guard uses — while the computation continues and lands
 *    in the store for the retry,
 *  - leases: a get over a missing key may request a lease, promising
 *    the client will compute and put; leases expire after leaseTtlMs
 *    so a crashed holder cannot wedge other requesters forever.
 */

#ifndef POWERFITS_SVC_SERVER_HH
#define POWERFITS_SVC_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/memo.hh"
#include "exp/experiment.hh"
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
    unsigned computeThreads = 2;  //!< simulation worker pool size
    int leaseTtlMs = 30'000;      //!< crashed-lease-holder recovery
    int defaultDeadlineMs = 60'000; //!< used when a request sends none

    /**
     * Test hook: stall every simulation this long before it starts, so
     * the deadline tests can force a request timeout with a real
     * (eventually completing) computation behind it, and the sharing
     * tests can hold a run open while its size variants ask for it.
     */
    int testComputeDelayMs = 0;
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
     * Open (and recover) the store, bind the socket, and spin up the
     * accept and worker threads. @return false with @p err on
     * environmental failure.
     */
    bool start(std::string *err = nullptr);

    /** Stop accepting, drain connections and workers, close the store. */
    void stop();

    bool running() const { return running_; }

    const SvcServerConfig &config() const { return config_; }

    /** The store (valid between start() and stop()); test access. */
    ResultStore &store() { return *store_; }

    /** Connection threads not yet joined; test access. */
    size_t connectionThreads();

  private:
    /** One single-flight slot: a key being computed or leased out. */
    struct Inflight
    {
        enum class State : uint8_t
        {
            Pending,     //!< computing (or leased out)
            Done,        //!< result landed in the store
            Failed,      //!< computation threw
            Unsupported, //!< server cannot rebuild this program
        };

        State state = State::Pending;
        bool leased = false;     //!< held by an external client
        int64_t leaseExpiryMs = 0;
        //! The stored entry when Done (waiters answer with it, not with
        //! a store read); the reason when Failed or Unsupported.
        std::string text;
        std::condition_variable cv;
    };

    /** One "sim" request's compute job, as queued for a worker. */
    struct SimJob
    {
        SimKey key;
        std::string bench;
        bool isFits = false;
        CoreConfig core;
        ObserverSpec spec;
    };

    /**
     * One run identity the daemon has simulated or is simulating: the
     * key whose stored entry holds its completed run, or the jobs
     * parked until the simulation ends. No results live here; the
     * store stays the only memo.
     */
    struct RunSlot
    {
        bool computing = true;
        SimKey stored; //!< valid once !computing
        std::vector<SimJob> parked;
    };

    void acceptLoop();
    void connectionLoop(int fd, uint64_t serial);
    /** Join the connection threads that have finished. */
    void reapConnections();
    void workerLoop();

    std::string handleRequest(const std::string &payload);
    std::string handleGet(const JsonValue &req);
    std::string handlePut(const JsonValue &req);
    std::string handleSim(const JsonValue &req);
    std::string handleStats();

    /**
     * Block until the inflight slot resolves or @p deadline_at (ms,
     * monotonic) passes. @return the final state, or Pending on
     * deadline/shutdown.
     */
    Inflight::State waitInflight(std::shared_ptr<Inflight> infl,
                                 int64_t deadline_at);

    /**
     * The slot for @p key, or null when there is none or its lease
     * expired (the slot is then reclaimed). inflightMu_ held.
     */
    std::shared_ptr<Inflight> findInflightLocked(const SimKey &key);

    /**
     * Resolve the slot for @p key to @p state and wake waiters;
     * @p text becomes Inflight::text.
     */
    void resolveInflight(const SimKey &key, Inflight::State state,
                         const std::string &text = "");

    /** Hand @p job to the worker pool (dropped once stopping). */
    void enqueue(SimJob job);

    /** Answer one simulation request end to end (worker thread). */
    void computeJob(const SimJob &job);

    /**
     * End the simulation of run @p identity: record @p stored as the
     * key holding its completed run, or forget the identity when null
     * (the run did not complete or was not stored), and re-queue the
     * parked jobs.
     */
    void endRun(const SimKey &identity, const SimKey *stored);

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

    std::mutex workMu_;
    std::condition_variable workCv_;
    std::deque<std::function<void()>> workQueue_;
    std::vector<std::thread> workers_;

    std::mutex inflightMu_; //!< guards inflight_ and every Inflight
    std::map<SimKey, std::shared_ptr<Inflight>> inflight_;

    //! Each bench's prepared front-ends, built at most once.
    Memo<std::string, std::shared_ptr<PreparedBench>> benchCache_;

    std::mutex runsMu_; //!< guards runs_
    std::map<SimKey, RunSlot> runs_; //!< by SimRequest::runIdentity
};

} // namespace pfits

#endif // POWERFITS_SVC_SERVER_HH
