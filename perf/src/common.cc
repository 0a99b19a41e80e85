#include <algorithm>
#include <cstdio>
#include <thread>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perf.hh"

namespace perf
{

unsigned
benchJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

Digest &
Digest::bytes(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull;
    }
    return *this;
}

Digest &
Digest::str(const std::string &s)
{
    u64(s.size());
    return bytes(s.data(), s.size());
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
Guards::add(const pfits::RunResult &run, const pfits::ChipRunStats &chip)
{
    instructions += deliveredInstructions(run, chip);
    cycles += chip.ranAsChip() ? chip.chipCycles : run.cycles;
    icacheAccesses += run.icache.accesses();
    icacheMisses += run.icache.misses();
    icacheMemoHits += run.icache.wayMemoHits;
    dcacheAccesses += run.dcache.accesses();
    dcacheMisses += run.dcache.misses();
    l2Accesses += chip.l2.accesses();
    l2Misses += chip.l2.misses();
    invalidations += chip.coherence.invalidations;
    backInvalidations += chip.coherence.backInvalidations;
}

uint64_t
deliveredInstructions(const pfits::RunResult &run,
                      const pfits::ChipRunStats &chip)
{
    if (!chip.ranAsChip())
        return run.instructions;
    uint64_t sum = 0;
    for (uint64_t n : chip.tileInstructions)
        sum += n;
    return sum;
}

namespace
{

void
addCacheStats(Digest &d, const pfits::CacheStats &s)
{
    d.u64(s.reads).u64(s.writes).u64(s.readMisses).u64(s.writeMisses);
    d.u64(s.writebacks).u64(s.wayMemoHits);
}

} // namespace

uint64_t
simDigest(const pfits::RunResult &run, const pfits::ChipRunStats &chip,
          const pfits::CachePowerBreakdown &icache,
          const pfits::ChipPowerBreakdown &chipPower)
{
    Digest d;
    d.u64(run.instructions).u64(run.annulled).u64(run.cycles);
    addCacheStats(d, run.icache);
    addCacheStats(d, run.dcache);
    d.u64(run.fetchToggleBits).u64(run.fetchBitsTotal);
    d.u64(run.icacheRefillWords).u64(run.dmemAccesses);
    d.u64(run.takenBranches).u64(static_cast<uint64_t>(run.outcome));
    for (uint32_t w : run.io.emitted)
        d.u64(w);
    d.u64(chip.chipCycles);
    for (uint64_t c : chip.tileCycles)
        d.u64(c);
    for (uint64_t n : chip.tileInstructions)
        d.u64(n);
    addCacheStats(d, chip.l2);
    const pfits::CoherenceStats &c = chip.coherence;
    d.u64(c.readFills).u64(c.writeFills).u64(c.upgrades);
    d.u64(c.invalidations).u64(c.downgrades).u64(c.backInvalidations);
    d.u64(c.recallWritebacks).u64(c.l1Writebacks).u64(c.l2Writebacks);
    d.f64(icache.totalJ()).f64(icache.peakW).f64(chipPower.totalJ());
    return d.value();
}

uint64_t
RepResult::digest() const
{
    Digest d;
    for (const std::string &t : tables)
        d.str(t);
    for (uint64_t item : itemDigests)
        d.u64(item);
    return d.value();
}

void
RepResult::fail(std::string why)
{
    ++failed;
    errors.push_back(std::move(why));
}

void
OpLog::record(uint64_t ns, uint64_t instructions)
{
    std::lock_guard<std::mutex> lock(mu_);
    cur_.latencyMs.push_back(static_cast<double>(ns) / 1e6);
    cur_.busyNs += ns;
    cur_.instructions += instructions;
}

OpLog::Snapshot
OpLog::take()
{
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot out = std::move(cur_);
    cur_ = Snapshot{};
    return out;
}

OpLog &
opLog()
{
    static OpLog log;
    return log;
}

TimedService::TimedService(pfits::SimService *inner)
    : inner_(inner ? inner : &pfits::localSimService()),
      previous_(pfits::installSimService(this))
{
}

TimedService::~TimedService()
{
    pfits::installSimService(previous_);
}

pfits::SimResult
TimedService::simulate(const pfits::SimRequest &request)
{
    const bool traced = pfits::TraceRecorder::current() != nullptr;
    pfits::TraceSpan span("perf.request", "perf",
                          traced ? pfits::TraceArgs()
                                       .add("bench", request.bench)
                                       .add("config", request.core->name)
                                 : pfits::TraceArgs());
    const uint64_t t0 = pfits::monotonicNs();
    pfits::SimResult result = inner_->simulate(request);
    opLog().record(pfits::monotonicNs() - t0,
                   deliveredInstructions(result.run, result.chip));
    return result;
}

} // namespace perf
