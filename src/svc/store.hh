/**
 * @file
 * pfitsd's persistent half: a content-addressed, crash-safe result
 * store on the local filesystem.
 *
 * One file per entry, named by the SimCache content hashes
 * (proto.hh:keyFileName), each holding a self-verifying
 * "pfits-store-v1" entry — a JSON line plus an FNV-1a checksum
 * trailer. Entries are published with writeFileAtomic(), so a reader
 * (including a recovering daemon) never sees a torn file; anything
 * that *does* fail verification — truncated by a crash mid-rename on
 * a weaker filesystem, bit-flipped by the disk, hand-edited — is moved
 * into a quarantine/ subdirectory, never deleted and never served.
 *
 * Capacity is a byte budget enforced by LRU eviction over the entry
 * files; recency starts from file mtimes at open() and follows get()
 * order afterwards. All methods are thread-safe.
 */

#ifndef POWERFITS_SVC_STORE_HH
#define POWERFITS_SVC_STORE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "exp/simcache.hh"

namespace pfits
{

/** Point-in-time statistics of a ResultStore. */
struct StoreStats
{
    uint64_t entries = 0;
    uint64_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t quarantined = 0; //!< entries moved aside since open()
};

/** The on-disk content-addressed result store. */
class ResultStore
{
  public:
    /**
     * @param dir       directory entries live in (created on open)
     * @param max_bytes eviction budget; 0 = unbounded
     */
    ResultStore(std::string dir, uint64_t max_bytes = 0);

    /**
     * Create the directory if needed and run the recovery scan: every
     * "*.json" file is read and verified; entries whose checksum,
     * schema, or embedded key (against the filename) fail are moved to
     * quarantine/; stale "*.tmp.*" files from interrupted atomic
     * writes are deleted. @return false (with @p err) only on
     * environmental failure — an unusable directory, not bad entries.
     */
    bool open(std::string *err = nullptr);

    /**
     * Fetch the verbatim entry text under @p key. Re-verifies the
     * checksum on every read; a corrupt file is quarantined and
     * reported as a miss. @return true and fill @p entry_text on a hit.
     */
    bool get(const SimKey &key, std::string *entry_text);

    /**
     * Publish @p entry_text (a complete encoded entry) under @p key.
     * The entry is verified first — its checksum must hold and its
     * embedded key must equal @p key — then written atomically and
     * the budget enforced. Overwrites an existing entry (the content
     * address makes old and new semantically identical).
     * @return false with @p err on verification or I/O failure.
     */
    bool put(const SimKey &key, const std::string &entry_text,
             std::string *err = nullptr);

    /** @return true when an entry for @p key is resident. */
    bool contains(const SimKey &key);

    StoreStats stats() const;

    const std::string &dir() const { return dir_; }

    /** The quarantine subdirectory path ("<dir>/quarantine"). */
    std::string quarantineDir() const;

  private:
    struct Entry
    {
        uint64_t bytes = 0;
        std::list<SimKey>::iterator lruPos;
    };

    std::string pathFor(const SimKey &key) const;

    /** Move @p file_name aside into quarantine/. Caller holds mu_. */
    void quarantineLocked(const std::string &file_name);

    /** Drop LRU entries until within budget. Caller holds mu_. */
    void enforceBudgetLocked();

    /** Remove @p key from the index (file already gone/moved). */
    void dropIndexLocked(const SimKey &key);

    std::string dir_;
    uint64_t maxBytes_;

    mutable std::mutex mu_;
    std::unordered_map<SimKey, Entry, SimKeyHash> index_;
    std::list<SimKey> lru_; //!< front = most recently used
    uint64_t bytes_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t quarantined_ = 0;
};

} // namespace pfits

#endif // POWERFITS_SVC_STORE_HH
