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

#include <string>

#include "common/fault.hh"
#include "exp/simcache.hh"
#include "sim/frontend.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"

namespace pfits
{

/**
 * One simulation request as the Runner phrases it. The FrontEnd and
 * CoreConfig are authoritative (they define the content-addressed
 * key); bench/isFits name the same workload symbolically so a remote
 * service can rebuild it without shipping the instruction stream.
 */
struct SimRequest
{
    const FrontEnd *fe = nullptr;
    const CoreConfig *core = nullptr;
    FaultParams faults;       //!< final derived schedule (post seed mix)
    unsigned maxRetries = 0;  //!< reload-and-retry bound under faults
    ObserverSpec spec;

    /**
     * Chip-level shape of the run. Default = one tile, no shared L2 —
     * a plain Machine run. Non-default requests run a homogeneous
     * chip.tiles-tile Chip and are resolved locally (the daemon
     * protocol is single-core); the chip joins the content-addressed
     * key via hashConfigKey, so a cached single-core result never
     * answers a multi-tile request.
     */
    ChipConfig chip;

    /**
     * MiBench suite benchmark this program was built from, "" when the
     * request is not suite-addressable (hand-built programs in tests).
     */
    std::string bench;
    bool isFits = false; //!< bench's FITS translation vs its ARM form

    /** The content-addressed identity of this request. */
    SimKey
    key() const
    {
        return {hashFrontEnd(*fe), hashConfigKey(*core, chip),
                hashFaultParams(faults, maxRetries),
                hashObserverSpec(spec)};
    }
};

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
