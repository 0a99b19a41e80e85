#include "exp/simservice.hh"

#include <atomic>

namespace pfits
{

namespace
{

/** The default: straight through the process-wide memo cache. */
class LocalSimService final : public SimService
{
  public:
    SimResult
    simulate(const SimRequest &request) override
    {
        return SimCache::instance().simulate(request);
    }
};

std::atomic<SimService *> installedService{nullptr};

} // namespace

SimService &
localSimService()
{
    static LocalSimService service;
    return service;
}

SimService *
currentSimService()
{
    SimService *svc = installedService.load(std::memory_order_acquire);
    return svc ? svc : &localSimService();
}

SimService *
installSimService(SimService *service)
{
    return installedService.exchange(service, std::memory_order_acq_rel);
}

} // namespace pfits
