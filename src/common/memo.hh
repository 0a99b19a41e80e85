/**
 * @file
 * Memo: a thread-safe compute-once map, the one "compute once, let the
 * others wait" structure shared by SimCache and Runner.
 *
 * get() finds or creates the key's slot under one lock and computes
 * outside it, so unrelated keys never serialize. Callers arriving
 * while a key computes block for its value, or its exception: a throw
 * leaves no entry, so the next caller computes again (std::call_once
 * hangs on a throwing callable on some libstdc++ targets, GCC PR
 * 66146). Slots are shared, so clear() may drop a key mid-computation;
 * its caller and waiters still get the value.
 */

#ifndef POWERFITS_COMMON_MEMO_HH
#define POWERFITS_COMMON_MEMO_HH

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace pfits
{

template <class Key, class Value, class Hash = std::hash<Key>>
class Memo
{
  public:
    /**
     * The value under @p key: a completed one, the one another caller
     * is computing (waited for), or @p compute() run here. @p computed,
     * when given, is set to whether this call ran @p compute.
     */
    template <class F>
    Value
    get(const Key &key, F &&compute, bool *computed = nullptr)
    {
        std::shared_ptr<Slot> slot;
        bool owner = false;
        {
            std::unique_lock<std::mutex> lock(mu_);
            std::shared_ptr<Slot> &entry = slots_[key];
            owner = !entry;
            if (owner)
                entry = std::make_shared<Slot>();
            slot = entry;
            cv_.wait(lock, [&] { return owner || slot->done; });
        }
        if (computed)
            *computed = owner;
        if (!owner) {
            // A done slot never changes again, so it is read unlocked.
            if (slot->error)
                std::rethrow_exception(slot->error);
            return *slot->value;
        }
        try {
            slot->value.emplace(compute());
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            slot->error = std::current_exception();
            slot->done = true;
            auto it = slots_.find(key);
            if (it != slots_.end() && it->second == slot)
                slots_.erase(it);
            cv_.notify_all();
            throw;
        }
        std::lock_guard<std::mutex> lock(mu_);
        slot->done = true;
        cv_.notify_all();
        return *slot->value;
    }

    /** The completed value under @p key, if any; never blocks. */
    std::optional<Value>
    peek(const Key &key) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = slots_.find(key);
        if (it == slots_.end() || !it->second->done)
            return std::nullopt;
        return it->second->value;
    }

    /** Keys completed or being computed. */
    std::vector<Key>
    keys() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<Key> out;
        for (const auto &entry : slots_)
            out.push_back(entry.first);
        return out;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return slots_.size();
    }

    /** Drop every key, computing ones included. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        slots_.clear();
    }

  private:
    struct Slot
    {
        bool done = false;          //!< value or error set (under mu_)
        std::optional<Value> value; //!< written once, before done
        std::exception_ptr error;
    };

    mutable std::mutex mu_;
    std::condition_variable cv_; //!< notified when any slot is done
    std::unordered_map<Key, std::shared_ptr<Slot>, Hash> slots_;
};

} // namespace pfits

#endif // POWERFITS_COMMON_MEMO_HH
