/**
 * @file
 * A shared L2 fronted by a sparse directory-based MSI protocol.
 *
 * The Chip (sim/chip.hh) gives every tile private L1s and routes their
 * misses here. The L2 array reuses the tag-only Cache model; on top of
 * it a sparse directory — one entry per L2-resident line — tracks which
 * tiles hold a copy (a sharer bit vector) and whether one of them owns
 * it exclusively (MSI state). The protocol actions are the textbook
 * ones (DESIGN.md "Chip & coherence" has the full tables):
 *
 *   - read fill:  remote M owner is downgraded (dirty data recalled
 *                 into the L2), requester joins the sharer vector.
 *   - write fill: every remote copy is invalidated (dirty data
 *                 recalled), requester becomes the sole M owner.
 *   - write upgrade: an L1 write hit on a clean line is the S->M edge;
 *                 remote copies are invalidated without a refill.
 *   - L1 writeback: a dirty L1 victim updates the L2 copy and leaves
 *                 the sharer vector; the last leaver drops the entry
 *                 to Invalid.
 *   - back-invalidation: the L2 is inclusive, so an L2 victim recalls
 *                 every L1 copy of the departing line before its
 *                 directory entry is erased.
 *
 * Everything here is deterministic: sharers are visited in tile-index
 * order, the directory is only ever *iterated* for invariant checks
 * (which sort), and the single-threaded Chip interleaving fixes the
 * request order. CoherenceEvents stream to an optional listener so the
 * sim layer can fan them into SimObserver::onCoherence without this
 * layer depending on sim/.
 */

#ifndef POWERFITS_CACHE_COHERENCE_HH
#define POWERFITS_CACHE_COHERENCE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"

namespace pfits
{

/** Directory state of one L2-resident line. */
enum class MsiState : uint8_t
{
    Invalid,  //!< no L1 holds the line (L2 may still cache it)
    Shared,   //!< one or more L1s hold a read-only (clean) copy
    Modified, //!< exactly one L1 owns the line and may have dirtied it
};

/** @return "invalid"/"shared"/"modified". */
const char *msiStateName(MsiState state);

/**
 * The directory's view of one tile's private caches. Implemented by
 * Tile (sim/tile.hh); addresses are physical (tile-colored) line base
 * addresses.
 */
class CoherencePort
{
  public:
    virtual ~CoherencePort() = default;

    /**
     * Drop every copy of the line (I- and D-side).
     * @return true when a dirty D-side copy was recalled — the caller
     * owns writing that data onward.
     */
    virtual bool coherenceInvalidate(uint32_t lineAddr) = 0;

    /**
     * Downgrade the line M -> S: keep it resident, clear the dirty
     * bit. @return true when it was dirty (data recalled into the L2).
     */
    virtual bool coherenceDowngrade(uint32_t lineAddr) = 0;

    /** Visit every valid private-cache line as (lineAddr, dirty). */
    virtual void enumerateLines(
        const std::function<void(uint32_t, bool)> &fn) const = 0;
};

/** One protocol action, streamed to the chip's observers. */
struct CoherenceEvent
{
    enum class Kind : uint8_t
    {
        ReadFill,       //!< L1 read miss serviced by the L2
        WriteFill,      //!< L1 write miss serviced by the L2
        Upgrade,        //!< S->M on an L1 write hit (no refill)
        Invalidate,     //!< remote copy dropped for a writer
        Downgrade,      //!< remote M owner demoted for a reader
        BackInvalidate, //!< inclusion recall for an L2 victim
        L1Writeback,    //!< dirty L1 victim written into the L2
        L2Writeback,    //!< dirty line written back to memory
    };

    Kind kind;
    unsigned tile;     //!< requester, or the tile losing its copy
    uint32_t lineAddr; //!< physical line base address
    bool l2Hit;        //!< fills only: the L2 already held the line
    bool dirty;        //!< a dirty copy was recalled / written back
};

/** @return a short name for an event kind ("read-fill", ...). */
const char *coherenceEventKindName(CoherenceEvent::Kind kind);

/** Receiver for CoherenceEvents (the Chip bridges to SimObserver). */
class CoherenceListener
{
  public:
    virtual ~CoherenceListener() = default;
    virtual void onCoherence(const CoherenceEvent &) = 0;
};

/** Protocol activity counters (the uncore power model's input). */
struct CoherenceStats
{
    uint64_t readFills = 0;
    uint64_t writeFills = 0;
    uint64_t upgrades = 0;
    uint64_t invalidations = 0;    //!< remote copies dropped for writers
    uint64_t downgrades = 0;       //!< M owners demoted for readers
    uint64_t backInvalidations = 0; //!< inclusion recalls on L2 victims
    uint64_t recallWritebacks = 0; //!< dirty L1 data pulled by recalls
    uint64_t l1Writebacks = 0;     //!< dirty L1 victims landing in L2
    uint64_t l2Writebacks = 0;     //!< dirty lines pushed to memory

    /** The field list (common/fields.hh). */
    template <class V>
    static void
    fields(V &v)
    {
        v("read_fills", &CoherenceStats::readFills);
        v("write_fills", &CoherenceStats::writeFills);
        v("upgrades", &CoherenceStats::upgrades);
        v("invalidations", &CoherenceStats::invalidations);
        v("downgrades", &CoherenceStats::downgrades);
        v("back_invalidations", &CoherenceStats::backInvalidations);
        v("recall_writebacks", &CoherenceStats::recallWritebacks);
        v("l1_writebacks", &CoherenceStats::l1Writebacks);
        v("l2_writebacks", &CoherenceStats::l2Writebacks);
    }
};

/** The shared second level: L2 tags plus the MSI directory. */
class CoherentL2
{
  public:
    struct Params
    {
        CacheConfig cache{"l2", 256 * 1024, 8, 32, ReplPolicy::LRU,
                          true};
        unsigned hitPenalty = 6;   //!< L1-miss/L2-hit cycles
        unsigned missPenalty = 18; //!< additional cycles on an L2 miss
        unsigned upgradePenalty = 4; //!< cycles when an upgrade had to
                                     //!< invalidate remote copies
    };

    CoherentL2(const Params &params, unsigned numTiles);

    /** Register tile @p tile's private caches (not owned). */
    void attachPort(unsigned tile, CoherencePort *port);

    /** Stream protocol events to @p listener (not owned; nullable). */
    void setListener(CoherenceListener *listener);

    /**
     * Service an L1 miss of @p tile for @p addr. Runs the protocol
     * (invalidations/downgrades), accesses the L2 array, handles
     * inclusion back-invalidation of the L2 victim, and updates the
     * directory.
     * @return the L1 miss penalty in cycles.
     */
    unsigned accessFill(unsigned tile, uint32_t addr, bool write);

    /**
     * An L1 write hit on a clean line (S->M). Invalidates remote
     * copies; no L2 array refill.
     * @return extra stall cycles (0 when no remote copy existed).
     */
    unsigned upgradeForWrite(unsigned tile, uint32_t addr);

    /** A dirty L1 victim of @p tile lands in the L2. */
    void l1Writeback(unsigned tile, uint32_t addr);

    const CacheStats &l2Stats() const { return l2_.stats(); }
    const CoherenceStats &stats() const { return stats_; }
    const CacheConfig &config() const { return l2_.config(); }

    /** Directory snapshot of one line, for tests and checkers. */
    struct DirSnapshot
    {
        MsiState state;
        uint64_t sharers; //!< bit t set = tile t recorded as holder
    };

    std::optional<DirSnapshot> dirEntry(uint32_t addr) const;

    /**
     * Verify the protocol invariants against the attached ports'
     * actual cache contents:
     *   1. every privately held line has a directory entry naming its
     *      holder, and the L2 still caches it (inclusion);
     *   2. a dirty private line implies Modified with exactly that
     *      tile as the sole sharer (single-writer);
     *   3. every Modified entry has exactly one sharer;
     *   4. at most one tile holds any line dirty.
     * Sharer vectors may name tiles that silently dropped a clean
     * copy — the directory is a conservative superset.
     * @return "" when all hold, else a description of the first
     * violation (deterministic: lines are visited in sorted order).
     */
    std::string checkInvariants() const;

  private:
    uint32_t lineBase(uint32_t addr) const;
    void backInvalidate(uint32_t victimAddr);
    void emit(CoherenceEvent::Kind kind, unsigned tile,
              uint32_t lineAddr, bool l2_hit, bool dirty);

    struct DirEntry
    {
        MsiState state = MsiState::Invalid;
        uint64_t sharers = 0;
    };

    Params params_;
    Cache l2_;
    std::vector<CoherencePort *> ports_;
    std::unordered_map<uint32_t, DirEntry> dir_; //!< keyed by line base
    CoherenceStats stats_;
    CoherenceListener *listener_ = nullptr;
};

} // namespace pfits

#endif // POWERFITS_CACHE_COHERENCE_HH
