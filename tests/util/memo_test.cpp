// util::Memo: the byte-budgeted LRU policy (put/get) and the single-flight
// miss (get_or_build) that every process-wide memo cache shares.
#include "util/memo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace lpm::util {
namespace {

// A stored string costs its size plus Memo::kEntryOverhead (64) bytes;
// budgets below are chosen around that.
using StringMemo = Memo<std::uint64_t, std::string>;

std::uint64_t string_bytes(const std::string& s) { return s.size(); }

StringMemo make(std::uint64_t budget) { return StringMemo(budget, &string_bytes); }

/// A gate a build blocks on until the test opens it.
class Gate {
 public:
  void open() {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Spins until `flag` is set (a build has started).
void await(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

TEST(Memo, MissThenHit) {
  StringMemo memo = make(1 << 20);
  EXPECT_FALSE(memo.get(1).has_value());
  memo.put(1, "\"ipc\":2.0");
  const auto hit = memo.get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "\"ipc\":2.0");
  EXPECT_EQ(memo.size(), 1u);
}

TEST(Memo, EvictsLeastRecentlyUsed) {
  // Room for exactly two 4-byte entries.
  StringMemo memo = make(2 * (64 + 4));
  EXPECT_EQ(memo.put(1, "aaaa"), 0u);
  EXPECT_EQ(memo.put(2, "bbbb"), 0u);
  ASSERT_TRUE(memo.get(1).has_value());  // 1 is now most recent
  EXPECT_EQ(memo.put(3, "cccc"), 1u);    // evicts 2, the LRU entry
  EXPECT_TRUE(memo.get(1).has_value());
  EXPECT_FALSE(memo.get(2).has_value());
  EXPECT_TRUE(memo.get(3).has_value());
  EXPECT_EQ(memo.size(), 2u);
}

TEST(Memo, RePutRefreshesInsteadOfDuplicating) {
  StringMemo memo = make(1 << 20);
  memo.put(7, "old");
  memo.put(7, "old");
  EXPECT_EQ(memo.size(), 1u);
  const auto before = memo.bytes();
  memo.put(7, "old");
  EXPECT_EQ(memo.bytes(), before);
}

TEST(Memo, OversizedFragmentIsNotStored) {
  StringMemo memo = make(128);
  EXPECT_EQ(memo.put(9, std::string(4'096, 'x')), 0u);
  EXPECT_FALSE(memo.get(9).has_value());
  EXPECT_EQ(memo.bytes(), 0u);
}

TEST(Memo, ZeroBudgetDisables) {
  StringMemo memo = make(0);
  memo.put(1, "x");
  EXPECT_FALSE(memo.get(1).has_value());
  EXPECT_EQ(memo.size(), 0u);
  // A build still answers its caller; it is just not kept.
  const auto found = memo.get_or_build(2, [] { return std::string("y"); });
  EXPECT_EQ(found.value, "y");
  EXPECT_TRUE(found.built);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(Memo, BytesTrackEvictions) {
  StringMemo memo = make(3 * (64 + 8));
  for (std::uint64_t fp = 0; fp < 100; ++fp) {
    memo.put(fp, "12345678");
  }
  EXPECT_LE(memo.bytes(), memo.budget());
  EXPECT_EQ(memo.size(), 3u);
  // The three survivors are the three most recent fingerprints.
  EXPECT_TRUE(memo.get(99).has_value());
  EXPECT_TRUE(memo.get(98).has_value());
  EXPECT_TRUE(memo.get(97).has_value());
  EXPECT_FALSE(memo.get(96).has_value());
}

TEST(Memo, ConcurrentMixedTrafficIsSafe) {
  StringMemo memo = make(8 * 1024);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&memo, t] {
      for (std::uint64_t i = 0; i < 500; ++i) {
        const std::uint64_t fp = (t * 131) + i % 64;
        const std::string body = "body-" + std::to_string(fp);
        if (i % 3 == 0) {
          memo.put(fp, body);
        } else if (i % 3 == 1) {
          EXPECT_EQ(memo.get_or_build(fp, [&] { return body; }).value, body);
        } else if (const auto hit = memo.get(fp)) {
          EXPECT_EQ(*hit, body);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(memo.bytes(), memo.budget());
}

TEST(Memo, EntryUnderConstructionIsNotEvicted) {
  // Room for two 4-byte entries; the pending key holds none of it.
  StringMemo memo = make(2 * (64 + 4));
  std::atomic<bool> started{false};
  Gate gate;
  StringMemo::Found owner;
  std::thread first_caller([&] {
    owner = memo.get_or_build(1, [&] {
      started.store(true);
      gate.wait();
      return std::string("slow");
    });
  });
  await(started);
  // Inserts that fill and churn the whole budget while key 1 is pending.
  for (std::uint64_t k = 10; k < 20; ++k) memo.put(k, "xxxx");
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_LE(memo.bytes(), memo.budget());
  // A second caller of the pending key still joins the one build.
  std::atomic<bool> second_built{false};
  std::thread waiter([&] {
    const auto f = memo.get_or_build(1, [&] {
      second_built.store(true);
      return std::string("again");
    });
    EXPECT_EQ(f.value, "slow");
  });
  // Let the waiter block on the pending build before it lands.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.open();
  first_caller.join();
  waiter.join();
  EXPECT_TRUE(owner.built);
  EXPECT_EQ(owner.value, "slow");
  EXPECT_FALSE(second_built.load());
  EXPECT_EQ(memo.builds(), 1u);
  EXPECT_EQ(memo.get(1), std::optional<std::string>("slow"));
  EXPECT_LE(memo.bytes(), memo.budget());
}

TEST(Memo, ThrowingBuildIsNotCachedAndAWaiterBuilds) {
  StringMemo memo = make(1 << 20);
  std::atomic<bool> started{false};
  Gate gate;
  std::thread owner([&] {
    EXPECT_THROW((void)memo.get_or_build(3,
                                         [&]() -> std::string {
                                           started.store(true);
                                           gate.wait();
                                           throw std::runtime_error("boom");
                                         }),
                 std::runtime_error);
  });
  await(started);
  std::atomic<bool> waiter_built{false};
  StringMemo::Found found;
  std::thread waiter([&] {
    found = memo.get_or_build(3, [&] {
      waiter_built.store(true);
      return std::string("three");
    });
  });
  // Let the waiter block on the pending build before it fails.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.open();
  owner.join();
  waiter.join();
  EXPECT_TRUE(waiter_built.load());
  EXPECT_TRUE(found.built);
  EXPECT_EQ(found.value, "three");
  EXPECT_EQ(memo.builds(), 1u) << "a failed build does not count";
  EXPECT_EQ(memo.get(3), std::optional<std::string>("three"));
}

TEST(Memo, CancelledWaiterThrowsWhileTheOwnerFinishes) {
  StringMemo memo = make(1 << 20);
  std::atomic<bool> started{false};
  Gate gate;
  StringMemo::Found owner;
  std::thread first_caller([&] {
    owner = memo.get_or_build(4, [&] {
      started.store(true);
      gate.wait();
      return std::string("four");
    });
  });
  await(started);
  const std::atomic<bool> cancel{true};
  bool built_by_waiter = false;
  EXPECT_THROW((void)memo.get_or_build(
                   4,
                   [&] {
                     built_by_waiter = true;
                     return std::string("never");
                   },
                   &cancel),
               TimeoutError);
  EXPECT_FALSE(built_by_waiter);
  gate.open();
  first_caller.join();
  EXPECT_TRUE(owner.built);
  EXPECT_EQ(owner.value, "four");
  EXPECT_EQ(memo.get(4), std::optional<std::string>("four"));
}

}  // namespace
}  // namespace lpm::util
