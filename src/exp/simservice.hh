/**
 * @file
 * The simulation-service seam: where the experiment engine gets its
 * simulation results from.
 *
 * Runner::simulateConfig() does not call SimCache directly any more —
 * it goes through the installed SimService. The default service is the
 * process-local SimCache (exactly the old behavior, same memoization,
 * same keys). The pfitsd client library (src/svc/) installs a service
 * that consults a long-running daemon's cross-process result store
 * first and falls back to the local path on any failure, so a bench
 * binary behaves identically with or without a daemon — only the
 * amount of redundant simulation changes.
 */

#ifndef POWERFITS_EXP_SIMSERVICE_HH
#define POWERFITS_EXP_SIMSERVICE_HH

#include "exp/simcache.hh"

namespace pfits
{

/** Anything that can satisfy a SimRequest. */
class SimService
{
  public:
    virtual ~SimService() = default;
    virtual SimResult simulate(const SimRequest &request) = 0;
};

/** The SimCache-backed local service (the default). */
SimService &localSimService();

/** The installed service; never null (defaults to localSimService). */
SimService *currentSimService();

/**
 * Install @p service process-wide (nullptr reverts to the local
 * service). @return the previously installed service, or nullptr when
 * the default was active.
 */
SimService *installSimService(SimService *service);

} // namespace pfits

#endif // POWERFITS_EXP_SIMSERVICE_HH
