// Memo: the one byte-budgeted, single-flight memo cache. CPIexe
// calibrations, reuse profiles, rdh miss-probability tables and lpmd's
// rendered results all live in one (DESIGN §11).
//
// Budget: a stored entry costs cost(value) + kEntryOverhead bytes. Storing
// evicts least-recently-used entries until the new one fits; an entry
// larger than the whole budget is not stored, so a budget of 0 stores
// nothing. Single flight: concurrent get_or_build misses on one key run
// one build while the other callers wait, or poll a cancel flag and throw
// util::TimeoutError once it is set. A build that throws is not stored and
// its waiters retry the key (as they do when its value was too large to
// store). A key being built holds no bytes, so no insert evicts it. One
// mutex guards the memo; builds run outside it.
//
// util sits below obs, so the memo publishes no metrics: its calls say what
// happened, and owners publish their own counters from that.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/error.hpp"

namespace lpm::util {

template <class Key, class Value, class Hash = std::hash<Key>>
class Memo {
 public:
  /// Bytes charged per stored entry for its key and list and map nodes.
  static constexpr std::uint64_t kEntryOverhead = 64;
  /// Payload bytes one value keeps alive.
  using CostFn = std::uint64_t (*)(const Value&);

  Memo(std::uint64_t byte_budget, CostFn cost)
      : budget_(byte_budget), cost_(cost) {}
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// get_or_build's answer; `built` is true iff this call ran the build.
  struct Found {
    Value value;
    bool built = false;
  };

  /// The stored value for `key`, or build()'s, stored under the budget.
  template <class Build>
  Found get_or_build(const Key& key, Build&& build,
                     const std::atomic<bool>* cancel = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (const Value* hit = find_locked(key)) return {*hit, false};
      if (building_.insert(key).second) break;
      if (cancel == nullptr) {
        cv_.wait(lock);
        continue;
      }
      cv_.wait_for(lock, std::chrono::milliseconds(1));
      if (cancel->load(std::memory_order_relaxed)) {
        throw TimeoutError("memo: wait for a pending build cancelled");
      }
    }
    lock.unlock();
    Value value = [&] {
      try {
        return build();
      } catch (...) {
        const std::lock_guard<std::mutex> relock(mutex_);
        land_locked(key);
        throw;
      }
    }();
    lock.lock();
    land_locked(key);
    ++builds_;
    (void)store_locked(key, value);
    return {std::move(value), true};
  }

  /// The stored value for `key`, refreshing its recency. Never waits.
  [[nodiscard]] std::optional<Value> get(const Key& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Value* hit = find_locked(key);
    return hit == nullptr ? std::nullopt : std::optional<Value>(*hit);
  }

  /// Stores `value` and returns how many entries that evicted. A stored
  /// key keeps its value and is only refreshed.
  std::size_t put(const Key& key, Value value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return store_locked(key, std::move(value));
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
  }
  /// Bytes charged to stored entries; never above budget().
  [[nodiscard]] std::uint64_t bytes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }
  /// Builds get_or_build has run to completion.
  [[nodiscard]] std::uint64_t builds() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return builds_;
  }
  [[nodiscard]] std::uint64_t budget() const { return budget_; }

 private:
  struct Entry {
    Key key;
    Value value;
    std::uint64_t bytes = 0;
  };

  const Value* find_locked(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  void land_locked(const Key& key) {
    building_.erase(key);
    cv_.notify_all();
  }

  std::size_t store_locked(const Key& key, Value value) {
    if (find_locked(key) != nullptr) return 0;
    const std::uint64_t incoming = cost_(value) + kEntryOverhead;
    if (incoming > budget_) return 0;
    std::size_t evicted = 0;
    for (; bytes_ + incoming > budget_; ++evicted) {
      bytes_ -= lru_.back().bytes;
      index_.erase(lru_.back().key);
      lru_.pop_back();
    }
    lru_.push_front(Entry{key, std::move(value), incoming});
    index_.emplace(key, lru_.begin());
    bytes_ += incoming;
    return evicted;
  }

  const std::uint64_t budget_;
  const CostFn cost_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  std::unordered_set<Key, Hash> building_;  ///< keys with a build running
  std::uint64_t bytes_ = 0;
  std::uint64_t builds_ = 0;
};

}  // namespace lpm::util
