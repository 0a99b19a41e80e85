#include "svc/store.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/fileio.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "svc/proto.hh"

namespace pfits
{

namespace
{

bool
ensureDir(const std::string &path, std::string *err)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return true;
    if (err)
        *err = "mkdir " + path + ": " + std::strerror(errno);
    return false;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

} // namespace

ResultStore::ResultStore(std::string dir, uint64_t max_bytes)
    : dir_(std::move(dir)), maxBytes_(max_bytes)
{
}

std::string
ResultStore::quarantineDir() const
{
    return dir_ + "/quarantine";
}

std::string
ResultStore::pathFor(const SimKey &key) const
{
    return dir_ + "/" + keyFileName(key);
}

bool
ResultStore::open(std::string *err)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!ensureDir(dir_, err) || !ensureDir(quarantineDir(), err))
        return false;

    DIR *d = ::opendir(dir_.c_str());
    if (!d) {
        if (err)
            *err = "opendir " + dir_ + ": " + std::strerror(errno);
        return false;
    }

    struct Found
    {
        std::string name;
        SimKey key;
        uint64_t bytes;
        int64_t mtimeNs;
    };
    std::vector<Found> good;

    struct dirent *de;
    while ((de = ::readdir(d)) != nullptr) {
        std::string name = de->d_name;
        if (name == "." || name == ".." || name == "quarantine")
            continue;
        std::string path = dir_ + "/" + name;

        // An interrupted atomic write leaves only a temp file; the
        // target was never touched, so the temp is pure garbage.
        if (name.find(".tmp.") != std::string::npos) {
            ::unlink(path.c_str());
            continue;
        }
        if (!endsWith(name, ".json")) {
            quarantineLocked(name);
            continue;
        }

        std::string text;
        if (!readFileToString(path, &text)) {
            quarantineLocked(name);
            continue;
        }
        SimKey key;
        std::string verr;
        if (!verifyResultEntry(text, &key, &verr) ||
            keyFileName(key) != name) {
            warn("pfitsd store: quarantining %s (%s)", name.c_str(),
                 verr.empty() ? "key/filename mismatch"
                              : verr.c_str());
            quarantineLocked(name);
            continue;
        }

        struct stat st;
        if (::stat(path.c_str(), &st) != 0) {
            quarantineLocked(name);
            continue;
        }
        good.push_back({name, key, static_cast<uint64_t>(st.st_size),
                        static_cast<int64_t>(st.st_mtim.tv_sec) *
                                1'000'000'000 +
                            st.st_mtim.tv_nsec});
    }
    ::closedir(d);

    // Oldest first, so the LRU list ends up hottest-at-front.
    std::sort(good.begin(), good.end(),
              [](const Found &a, const Found &b) {
                  if (a.mtimeNs != b.mtimeNs)
                      return a.mtimeNs < b.mtimeNs;
                  return a.name < b.name;
              });
    for (const Found &f : good) {
        lru_.push_front(f.key);
        index_[f.key] = Entry{f.bytes, lru_.begin()};
        bytes_ += f.bytes;
    }
    enforceBudgetLocked();
    return true;
}

bool
ResultStore::get(const SimKey &key, std::string *entry_text)
{
    // Store reads span the disk read plus integrity verification —
    // the I/O cost a warm OS cache hides and a trace makes visible.
    TraceSpan span("store.get", "store",
                   TraceArgs().addHex("program", key.program));
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        return false;
    }

    std::string text;
    SimKey embedded;
    std::string verr;
    if (!readFileToString(pathFor(key), &text) ||
        !verifyResultEntry(text, &embedded, &verr) ||
        embedded != key) {
        // The file rotted (or vanished) underneath the index: move it
        // aside and report a miss; the requester will re-simulate.
        warn("pfitsd store: quarantining %s on read (%s)",
             keyFileName(key).c_str(),
             verr.empty() ? "missing or key mismatch" : verr.c_str());
        quarantineLocked(keyFileName(key));
        dropIndexLocked(key);
        ++misses_;
        return false;
    }

    lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    it->second.lruPos = lru_.begin();
    *entry_text = text;
    ++hits_;
    return true;
}

bool
ResultStore::put(const SimKey &key, const std::string &entry_text,
                 std::string *err)
{
    SimKey embedded;
    if (!verifyResultEntry(entry_text, &embedded, err))
        return false;
    if (embedded != key) {
        if (err)
            *err = "entry key does not match put key";
        return false;
    }

    TraceSpan span("store.put", "store",
                   TraceArgs()
                       .addHex("program", key.program)
                       .add("bytes", entry_text.size()));
    std::lock_guard<std::mutex> lock(mu_);
    if (!writeFileAtomic(pathFor(key), entry_text, err))
        return false;

    dropIndexLocked(key); // a re-put replaces the entry
    lru_.push_front(key);
    index_[key] = Entry{entry_text.size(), lru_.begin()};
    bytes_ += entry_text.size();
    enforceBudgetLocked();
    return true;
}

bool
ResultStore::contains(const SimKey &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    return index_.count(key) != 0;
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    StoreStats s;
    s.entries = index_.size();
    s.bytes = bytes_;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.quarantined = quarantined_;
    return s;
}

void
ResultStore::quarantineLocked(const std::string &file_name)
{
    if (TraceRecorder *trace = TraceRecorder::current())
        trace->instant("store.quarantine", "store",
                       TraceArgs().add("file", file_name));
    std::string src = dir_ + "/" + file_name;
    std::string dst = quarantineDir() + "/" + file_name;
    // rename within one directory tree should not fail; if it somehow
    // does, removing the bad file is the safe fallback (it would
    // otherwise be re-served or re-scanned forever).
    if (::rename(src.c_str(), dst.c_str()) != 0)
        ::unlink(src.c_str());
    ++quarantined_;
}

void
ResultStore::dropIndexLocked(const SimKey &key)
{
    auto it = index_.find(key);
    if (it == index_.end())
        return;
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lruPos);
    index_.erase(it);
}

void
ResultStore::enforceBudgetLocked()
{
    if (maxBytes_ == 0)
        return;
    while (bytes_ > maxBytes_ && !lru_.empty()) {
        SimKey victim = lru_.back();
        if (TraceRecorder *trace = TraceRecorder::current())
            trace->instant("store.evict", "store",
                           TraceArgs().addHex("program",
                                              victim.program));
        ::unlink(pathFor(victim).c_str());
        dropIndexLocked(victim);
        ++evictions_;
    }
}

} // namespace pfits
