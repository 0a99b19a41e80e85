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
