#include "sim/memory.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace pfits
{

void
trap(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = detail::vformat(fmt, ap);
    va_end(ap);
    throw TrapError(msg);
}

Memory::Page &
Memory::pageSlow(uint32_t addr)
{
    uint32_t key = addr >> kPageShift;
    auto it = pages_.find(key);
    if (it == pages_.end())
        it = pages_.emplace(key, Page(kPageSize, 0)).first;
    lastKey_ = key;
    lastPage_ = &it->second;
    return it->second;
}

void
Memory::writeBytes(uint32_t addr, const std::vector<uint8_t> &bytes)
{
    // One page() and one memcpy per page the segment touches.
    for (size_t done = 0; done < bytes.size();) {
        const uint32_t at = addr + static_cast<uint32_t>(done);
        const uint32_t off = at & (kPageSize - 1);
        const size_t n =
            std::min<size_t>(kPageSize - off, bytes.size() - done);
        std::memcpy(page(at).data() + off, bytes.data() + done, n);
        done += n;
    }
}

std::optional<uint32_t>
Memory::firstDifference(const Memory &other) const
{
    static const Page zero_page(kPageSize, 0);

    std::vector<uint32_t> keys;
    keys.reserve(pages_.size() + other.pages_.size());
    for (const auto &[key, page] : pages_)
        keys.push_back(key);
    for (const auto &[key, page] : other.pages_)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    for (uint32_t key : keys) {
        auto a_it = pages_.find(key);
        auto b_it = other.pages_.find(key);
        const Page &a = a_it == pages_.end() ? zero_page : a_it->second;
        const Page &b =
            b_it == other.pages_.end() ? zero_page : b_it->second;
        if (a == b)
            continue;
        for (uint32_t off = 0; off < kPageSize; ++off)
            if (a[off] != b[off])
                return (key << kPageShift) | off;
    }
    return std::nullopt;
}

std::optional<uint32_t>
Memory::injectBitFlip(Rng &rng)
{
    if (pages_.empty())
        return std::nullopt;
    // unordered_map iteration order is not deterministic across
    // implementations; pick the victim page from sorted keys so a
    // seeded fault plan replays identically everywhere.
    std::vector<uint32_t> keys;
    keys.reserve(pages_.size());
    for (const auto &[key, page] : pages_)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    uint32_t key = keys[rng.below(static_cast<uint32_t>(keys.size()))];
    uint32_t bit = rng.below(kPageSize * 8);
    pages_[key][bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    return (key << kPageShift) | (bit / 8);
}

} // namespace pfits
