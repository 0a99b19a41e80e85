/**
 * @file
 * The Chip: N Tiles round-robin over a shared, MSI-coherent L2.
 *
 * Each tile runs its own kernel — optionally with its own FITS ISA,
 * since every tile has its own FrontEnd — behind private L1s; misses
 * go to one shared L2 fronted by a sparse directory (cache/coherence.hh).
 * Execution interleaves the tiles in a fixed round-robin instruction
 * quantum on one thread, so a chip run is deterministic and
 * byte-identical regardless of --jobs or host: the only ordering that
 * matters is the one this loop fixes.
 *
 * Determinism contract: tile t executes quantum instructions (or until
 * its run ends), then tile t+1, wrapping until every tile is done. All
 * coherence actions happen synchronously inside the executing tile's
 * L2 calls, so a given (specs, config) pair always produces the same
 * ChipResult. The quantum only changes *interleaving* — for a single
 * tile it is unobservable, and ChipConfig{tiles = 1} without a shared
 * L2 reproduces Machine::run bit for bit (the Chip simply steps the
 * same tile the Machine would, one virtual call per quantum).
 *
 * Address coloring: tile t's references are offset by t << tileShift,
 * so independent programs never collide in the shared L2 while still
 * contending for its capacity — the experiment the paper's chip-level
 * story needs. Coherence traffic (sharing) is exercised separately by
 * the verify fuzz, which drives CoherentL2 with overlapping addresses.
 */

#ifndef POWERFITS_SIM_CHIP_HH
#define POWERFITS_SIM_CHIP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/coherence.hh"
#include "sim/machine.hh"
#include "sim/memory.hh"
#include "sim/probe.hh"
#include "sim/tile.hh"

namespace pfits
{

/** Chip-level configuration (the part above one core's CoreConfig). */
struct ChipConfig
{
    unsigned tiles = 1;

    /**
     * Round-robin instruction quantum. Changing it changes only the
     * interleaving of tile execution, never any single tile's
     * architectural results; with one tile it is unobservable.
     */
    uint64_t quantum = 10'000;

    /**
     * Give the tiles a shared L2 behind the MSI directory. Off (the
     * default), every tile's misses cost the flat CoreConfig
     * penalties, exactly like N independent Machines — and with
     * tiles = 1 the chip *is* a Machine, bit for bit.
     */
    bool sharedL2 = false;

    CacheConfig l2{"l2", 256 * 1024, 8, 32, ReplPolicy::LRU, true};
    unsigned l2HitPenalty = 6;   //!< L1-miss/L2-hit cycles
    unsigned l2MissPenalty = 18; //!< additional cycles on an L2 miss
    unsigned upgradePenalty = 4; //!< S->M with remote copies to kill

    /**
     * Address-coloring shift: tile t sees physical addresses
     * virt + (t << tileShift). 26 gives each tile a disjoint 64 MiB
     * window, far above any program's footprint (code base 0x8000,
     * stack top 0x200000).
     */
    unsigned tileShift = 26;

    /** The do-nothing config: one tile, no shared L2 — a Machine. */
    bool
    isDefault() const
    {
        return tiles == 1 && !sharedL2;
    }

    /**
     * @return a descriptive error when the configuration is
     * inconsistent (tile count outside 1..64, zero quantum, coloring
     * windows overlapping, bad L2 geometry), or "" when valid.
     */
    std::string validateError() const;

    /** fatal() unless validateError() returns "". */
    void validate() const;

    /**
     * The field list (common/fields.hh). The default chip hashes to 0
     * (hashChipConfig), so every single-core key stays the bare core
     * hash; chips are single-process only and have no wire form.
     */
    template <class V>
    static void
    fields(V &v)
    {
        v("tiles", &ChipConfig::tiles, kKey);
        v("quantum", &ChipConfig::quantum, kKey);
        v("shared_l2", &ChipConfig::sharedL2, kKey);
        v("l2", &ChipConfig::l2, kKey);
        v("l2_hit_penalty", &ChipConfig::l2HitPenalty, kKey);
        v("l2_miss_penalty", &ChipConfig::l2MissPenalty, kKey);
        v("upgrade_penalty", &ChipConfig::upgradePenalty, kKey);
        v("tile_shift", &ChipConfig::tileShift, kKey);
    }
};

/** Everything a chip run produces. */
struct ChipResult
{
    std::vector<RunResult> tiles; //!< per-tile results, index = tileId
    CacheStats l2;                //!< shared-L2 array activity
    CoherenceStats coherence;     //!< directory/protocol activity
    uint64_t chipCycles = 0;      //!< slowest tile's cycle count
    double clockHz = 200e6;

    double seconds() const { return chipCycles / clockHz; }
};

/** N tiles, one shared L2, one deterministic interleaving. */
class Chip
{
  public:
    /** One tile's program and core parameters. */
    struct TileSpec
    {
        const FrontEnd *fe = nullptr; //!< not owned; must outlive us
        CoreConfig core;
    };

    /**
     * @param specs   one entry per tile; size must equal config.tiles
     * @param config  chip parameters (validated here)
     * @param factory the tiles to run; empty = the production engine
     *                (the differential harness passes its oracle)
     */
    Chip(const std::vector<TileSpec> &specs, const ChipConfig &config,
         const TileFactory &factory = {});

    /**
     * Attach @p observers (not owned) to tile @p tile's event stream;
     * register before run(). Coherence events go to the chip-level
     * list (setChipObservers), not the per-tile ones.
     */
    void setObservers(unsigned tile, ObserverList *observers);

    /** Observers for CoherenceEvents (not owned; nullable). */
    void setChipObservers(ObserverList *observers);

    /**
     * Run every tile to completion under the round-robin quantum.
     * Call once. Fault injection is a single-core (Machine) facility
     * and is not available in chip runs.
     */
    ChipResult run();

    const ChipConfig &config() const { return config_; }
    Memory &tileMem(unsigned t) { return *mems_[t]; }
    CoherentL2 *l2() { return l2_.get(); }

    /**
     * Run the coherence invariant checker (CoherentL2::checkInvariants)
     * against the tiles' current cache contents.
     * @return "" when clean or when there is no shared L2.
     */
    std::string checkCoherence() const;

  private:
    /** Fan CoherenceEvents into the chip-level ObserverList. */
    class ObserverBridge final : public CoherenceListener
    {
      public:
        void
        onCoherence(const CoherenceEvent &event) override
        {
            if (list && !list->empty())
                list->coherence(event);
            // Timeline tracing buffers events here and stamps them at
            // the quantum boundary: no clock reads inside tile.step.
            if (traceBuf) {
                ++traceSeen;
                if (traceBuf->size() < traceCap)
                    traceBuf->push_back(event);
            }
        }

        ObserverList *list = nullptr;
        std::vector<CoherenceEvent> *traceBuf = nullptr;
        size_t traceCap = 0;
        uint64_t traceSeen = 0;
    };

    ChipConfig config_;
    std::vector<std::unique_ptr<Memory>> mems_;
    std::vector<std::unique_ptr<Tile>> tiles_;
    std::unique_ptr<CoherentL2> l2_;
    std::vector<ObserverList *> observers_;
    ObserverBridge bridge_;
    bool ran_ = false;
};

} // namespace pfits

#endif // POWERFITS_SIM_CHIP_HH
