#include "sim/chip.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "sim/probe.hh"

namespace pfits
{

std::string
ChipConfig::validateError() const
{
    if (tiles == 0 || tiles > 64)
        return detail::format(
            "chip: %u tiles outside the supported 1..64 (sharer "
            "vectors are 64 bits wide)", tiles);
    if (quantum == 0)
        return "chip: round-robin quantum must be non-zero";
    if (tileShift < 22 || tileShift > 31)
        return detail::format(
            "chip: tileShift %u outside 22..31", tileShift);
    // Every tile's coloring window must fit the 32-bit address space.
    if (tiles > (1ull << (32 - tileShift)))
        return detail::format(
            "chip: %u tiles do not fit 32-bit addresses with "
            "tileShift %u", tiles, tileShift);
    if (sharedL2) {
        std::string err = l2.validateError();
        if (!err.empty())
            return err;
        if (!l2.writeBack)
            return "chip: the shared L2 must be write-back";
    }
    return "";
}

void
ChipConfig::validate() const
{
    std::string err = validateError();
    if (!err.empty())
        fatal("%s", err.c_str());
}

Chip::Chip(const std::vector<TileSpec> &specs, const ChipConfig &config,
           const TileFactory &factory)
    : config_(config), observers_(config.tiles, nullptr)
{
    config_.validate();
    if (specs.size() != config_.tiles)
        fatal("chip: %zu tile specs for %u tiles", specs.size(),
              config_.tiles);

    if (config_.sharedL2) {
        CoherentL2::Params params;
        params.cache = config_.l2;
        params.hitPenalty = config_.l2HitPenalty;
        params.missPenalty = config_.l2MissPenalty;
        params.upgradePenalty = config_.upgradePenalty;
        l2_ = std::make_unique<CoherentL2>(params, config_.tiles);
        l2_->setListener(&bridge_);
    }

    const TileFactory make = factory ? factory : engineTileFactory();
    mems_.reserve(config_.tiles);
    tiles_.reserve(config_.tiles);
    for (unsigned t = 0; t < config_.tiles; ++t) {
        const TileSpec &spec = specs[t];
        if (!spec.fe)
            fatal("chip: tile %u has no frontend", t);
        auto mem = std::make_unique<Memory>();
        for (const DataSegment &seg : spec.fe->dataSegments())
            mem->writeBytes(seg.base, seg.bytes);
        std::unique_ptr<Tile> tile = make(*spec.fe, spec.core, *mem, t);
        if (l2_) {
            tile->attachL2(l2_.get(),
                           static_cast<uint32_t>(t) << config_.tileShift);
            l2_->attachPort(t, tile.get());
        }
        mems_.push_back(std::move(mem));
        tiles_.push_back(std::move(tile));
    }
}

void
Chip::setObservers(unsigned tile, ObserverList *observers)
{
    if (tile >= observers_.size())
        fatal("chip: observer index %u out of range", tile);
    observers_[tile] = observers;
}

void
Chip::setChipObservers(ObserverList *observers)
{
    bridge_.list = observers;
}

ChipResult
Chip::run()
{
    if (ran_)
        fatal("chip: run() called twice");
    ran_ = true;

    // Per-tile timeline tracks: quantum slices as duration spans,
    // coherence events as instants. Lanes are per-(thread, tile) so
    // concurrent Chip::run calls on different workers never interleave
    // begin/end pairs on a shared track; the clock is read only at
    // quantum boundaries (tile.step itself stays untouched — tracing
    // is a pure function of the observer data, never of the results).
    TraceRecorder *trace = TraceRecorder::current();
    uint32_t lane_base = 0;
    std::vector<CoherenceEvent> coh_events;
    constexpr size_t kCoherenceCapPerQuantum = 256;
    if (trace) {
        lane_base = (trace->threadLane() + 1) * 256;
        for (unsigned t = 0; t < config_.tiles; ++t)
            trace->nameLane(lane_base + t,
                            "w" + std::to_string(trace->threadLane()) +
                                " tile " + std::to_string(t));
        coh_events.reserve(kCoherenceCapPerQuantum);
        bridge_.traceBuf = &coh_events;
        bridge_.traceCap = kCoherenceCapPerQuantum;
    }

    // The determinism contract (header): tiles execute one quantum at
    // a time in tile order, on this thread, until all are done. Every
    // coherence action is synchronous within the executing tile's L2
    // call, so the interleaving — and with it every stat — is a pure
    // function of (specs, config).
    bool pending = true;
    while (pending) {
        pending = false;
        for (unsigned t = 0; t < config_.tiles; ++t) {
            Tile &tile = *tiles_[t];
            if (tile.done())
                continue;
            if (trace)
                trace->beginLane(lane_base + t, "quantum", "chip",
                                 TraceArgs().add("tile", t));
            tile.step(config_.quantum, nullptr, observers_[t]);
            if (trace) {
                // Stamp this quantum's buffered coherence events at
                // the boundary: position over precision, capped so a
                // pathological sharing storm cannot flood the trace.
                for (const CoherenceEvent &e : coh_events)
                    trace->instantLane(
                        lane_base + t, coherenceEventKindName(e.kind),
                        "coherence",
                        TraceArgs()
                            .add("tile", e.tile)
                            .addHex("line", e.lineAddr)
                            .add("l2_hit", e.l2Hit)
                            .add("dirty", e.dirty));
                if (bridge_.traceSeen > coh_events.size())
                    trace->instantLane(
                        lane_base + t, "coherence.dropped", "coherence",
                        TraceArgs().add("dropped",
                                        bridge_.traceSeen -
                                            coh_events.size()));
                coh_events.clear();
                bridge_.traceSeen = 0;
                trace->endLane(lane_base + t);
            }
            pending = pending || !tile.done();
        }
    }
    bridge_.traceBuf = nullptr;

    ChipResult out;
    out.tiles.reserve(config_.tiles);
    for (unsigned t = 0; t < config_.tiles; ++t)
        out.tiles.push_back(tiles_[t]->finish(observers_[t]));
    for (const RunResult &rr : out.tiles)
        out.chipCycles = std::max(out.chipCycles, rr.cycles);
    if (!out.tiles.empty())
        out.clockHz = out.tiles.front().clockHz;
    if (l2_) {
        out.l2 = l2_->l2Stats();
        out.coherence = l2_->stats();
    }
    return out;
}

std::string
Chip::checkCoherence() const
{
    return l2_ ? l2_->checkInvariants() : "";
}

} // namespace pfits
