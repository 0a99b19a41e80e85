#include "sim/machine.hh"

#include <utility>

#include "common/logging.hh"
#include "sim/probe.hh"
#include "sim/tile.hh"

namespace pfits
{

const char *
runOutcomeName(RunOutcome outcome)
{
    switch (outcome) {
      case RunOutcome::Completed: return "completed";
      case RunOutcome::Trapped: return "trapped";
      case RunOutcome::WatchdogExpired: return "watchdog-expired";
      case RunOutcome::FaultDetected: return "fault-detected";
      default: panic("bad RunOutcome");
    }
}

void
RunResult::addStats(StatGroup &group) const
{
    auto add = [&](const char *stat_name, double value,
                   const char *desc) {
        group.addFormula(stat_name, [value]() { return value; }, desc);
    };
    add("instructions", static_cast<double>(instructions),
        "dynamic instructions (incl. annulled)");
    add("annulled", static_cast<double>(annulled),
        "condition-failed instructions");
    add("cycles", static_cast<double>(cycles), "total cycles");
    add("ipc", ipc(), "instructions per cycle");
    add("seconds", seconds(), "simulated wall-clock time");
    add("taken_branches", static_cast<double>(takenBranches),
        "taken control transfers");
    add("fetch_bits", static_cast<double>(fetchBitsTotal),
        "bits delivered by the I-cache");
    add("fetch_toggle_bits", static_cast<double>(fetchToggleBits),
        "Hamming toggles on the fetch bus");
    add("icache.accesses", static_cast<double>(icache.accesses()),
        "I-cache accesses");
    add("icache.misses", static_cast<double>(icache.misses()),
        "I-cache misses");
    add("icache.mpmi", icache.missesPerMillion(),
        "I-cache misses per million accesses");
    add("icache.refill_words", static_cast<double>(icacheRefillWords),
        "words written by line refills");
    add("dcache.accesses", static_cast<double>(dcache.accesses()),
        "D-cache accesses");
    add("dcache.misses", static_cast<double>(dcache.misses()),
        "D-cache misses");
    add("dcache.writebacks", static_cast<double>(dcache.writebacks),
        "dirty lines written back");
    add("outcome", static_cast<double>(outcome),
        "0=completed 1=trapped 2=watchdog 3=fault-detected");
    add("icache.faults_injected",
        static_cast<double>(icache.faultsInjected),
        "soft errors landed in I-cache lines");
    add("icache.parity_detections",
        static_cast<double>(icache.parityDetections),
        "corrupt I-cache lines caught by parity");
    add("icache.corrupt_deliveries",
        static_cast<double>(icache.corruptDeliveries),
        "corrupt I-cache lines consumed silently");
}

Machine::Machine(const FrontEnd &fe, const CoreConfig &config,
                 TileFactory factory)
    : fe_(fe), config_(config), factory_(std::move(factory))
{
    config_.icache.validate();
    config_.dcache.validate();
    for (const DataSegment &seg : fe_.dataSegments())
        mem_.writeBytes(seg.base, seg.bytes);
}

RunResult
Machine::run(FaultPlan *faults, ObserverList *observers)
{
    // One tile with an unbounded budget and no L2: the single-core
    // contract is structural — a one-tile Chip steps the same tile in
    // quanta and must agree bit for bit.
    std::unique_ptr<Tile> tile =
        (factory_ ? factory_ : engineTileFactory())(fe_, config_, mem_, 0);
    tile->step(~0ull, faults, observers);
    return tile->finish(observers);
}

} // namespace pfits
