/**
 * @file
 * The pfitsd client: a SimService that shares results through a
 * daemon's store, computes what the store lacks on the caller's own
 * threads, and *never* makes a run fail that would have succeeded
 * without a daemon.
 *
 * The store is keyed by run identity (SimRequest::runIdentity), the
 * key SimCache computes under: a put carries its result with
 * run.config blank, and a hit is renamed to the asking core, so every
 * I-cache size that holds a program's code reads, leases and stores
 * one entry, whichever size asks first and in whichever process.
 *
 * Trace-armed, chip and fault-armed requests never reach the daemon:
 * their products (trace files, chip stats, fault tallies) are not
 * part of a store entry, so they resolve in-process.
 *
 * Path of one request:
 *  1. the process's SimCache (free: a key already answered is a hit,
 *     a size variant of an answered run shares it, and concurrent
 *     requests for one key wait for one round trip),
 *  2. a "get" round trip asking for the run identity's entry or a
 *     lease, with bounded retries and jittered exponential backoff on
 *     transport failures. A hit is verified and decoded. A miss comes
 *     with a lease: this client simulates (SimCache::runLocal) and
 *     puts the entry, with the same retries, because other clients
 *     wait on the lease. An identity leased to another client is
 *     answered with that client's put,
 *  3. local simulation, counted in svc.fallbacks, only on degradation:
 *     daemon unavailable, protocol error, a bad entry, or request
 *     deadline expiry ("timeout" responses carry outcome
 *     "watchdog-expired").
 *
 * Connections are reused: a round trip takes an idle connection, or
 * opens one (svc.connects), and hands it back after a complete
 * response; any failure closes it. A reused connection the daemon has
 * since closed (a restart, say) fails with EOF, EPIPE or ECONNRESET;
 * that request is retried once, at once, on a fresh connection, and
 * counts as no retry. Idle connections are at most the number of
 * concurrent requests, so at most the Runner's --jobs.
 *
 * Every hop is observable: svc.requests, svc.connects, svc.retries,
 * svc.timeouts, svc.fallbacks, svc.store.{hits,misses} count this
 * client's view;
 * recordServerStats() snapshots the daemon's
 * svc.store.{evictions,quarantined} gauges into the manifest. Results
 * fetched from the store are checksum-verified and memoized by the
 * SimCache they are fetched through, so manifests keep their "sims"
 * provenance and repeated keys stay in-process. A sweep answered from
 * the store puts nothing.
 */

#ifndef POWERFITS_SVC_CLIENT_HH
#define POWERFITS_SVC_CLIENT_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "exp/simservice.hh"

namespace pfits
{

/** Client-side knobs (fromEnv() reads the PFITS_DAEMON* variables). */
struct SvcClientConfig
{
    std::string socketPath;     //!< empty = daemon disabled
    /**
     * Total transport budget for one request — retries and backoff
     * sleeps included — and the deadline_ms the server is told.
     */
    int requestTimeoutMs = 60'000;
    unsigned maxRetries = 2;       //!< transport retries per request
    int backoffBaseMs = 25;
    int backoffMaxMs = 1'000;
    uint64_t jitterSeed = 0x5fc1e9u; //!< deterministic backoff jitter

    /**
     * Populate from the environment: PFITS_DAEMON (socket path),
     * PFITS_DAEMON_TIMEOUT_MS, PFITS_DAEMON_RETRIES. @return a config
     * whose enabled() reflects whether PFITS_DAEMON was set.
     */
    static SvcClientConfig fromEnv();

    bool enabled() const { return !socketPath.empty(); }
};

/**
 * The daemon-backed SimService. Thread-safe: concurrent requests (the
 * Runner fans them out over worker threads) each hold their own
 * connection for the length of one round trip.
 */
class SvcClient final : public SimService
{
  public:
    explicit SvcClient(SvcClientConfig config);
    ~SvcClient() override;

    /** SimService: resolve via daemon, falling back to local. */
    SimResult simulate(const SimRequest &request) override;

    /**
     * Probe the daemon with a "hello" round trip. @return true when a
     * compatible daemon answered.
     */
    bool ping();

    /**
     * Fetch daemon store statistics and publish them as the
     * svc.store.evictions / svc.store.quarantined gauges (best
     * effort; a dead daemon leaves the gauges untouched).
     */
    void recordServerStats();

    const SvcClientConfig &config() const { return config_; }

  private:
    /**
     * One request/response round trip with retry and backoff.
     * @return false when every transport attempt failed.
     */
    bool roundTrip(const std::string &request, std::string *response);

    /**
     * One send/recv exchange bounded by @p budget_ms, on an idle
     * connection or a new one (the receive leg adds a fixed grace so
     * an orderly server-side deadline expiry is still read as a
     * structured response).
     */
    bool attempt(const std::string &request, std::string *response,
                 int budget_ms, std::string *err);

    /**
     * The store's answer for @p request, its leased computation, or
     * its local fallback: the SimCompute simulate() passes to
     * SimCache.
     */
    SimResult fetch(const SimRequest &request);

    /**
     * Simulate a request leased to this client (SimCache::runLocal)
     * and put its entry under its run identity @p id, with
     * roundTrip's retries, under the request's @p trace_id.
     */
    SimResult computeLeased(const SimRequest &request, const SimKey &id,
                            uint64_t trace_id);

    /** Best-effort publish of a locally computed result under its run
     * identity @p id. */
    void tryPut(const SimKey &id, const SimResult &result);

    /** Run locally (SimCache::runLocal), count a fallback, and, when
     * @p try_put, best-effort put under its run identity @p id. */
    SimResult fallback(const SimRequest &request, const SimKey &id,
                       bool try_put);

    int backoffDelayMs(unsigned attempt);

    SvcClientConfig config_;

    std::mutex idleMu_;
    std::vector<int> idle_; //!< connected fds between round trips

    std::mutex rngMu_;
    Rng rng_; //!< backoff jitter; deterministic per config seed
};

} // namespace pfits

#endif // POWERFITS_SVC_CLIENT_HH
