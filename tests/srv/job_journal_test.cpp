// JobJournal: the crash-recovery log behind lpmd's exactly-once contract.
// Every test reopens the journal the way a restarted daemon would.
#include "srv/job_journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/temp_path.hpp"

namespace lpm::srv {
namespace {

std::string temp_journal(const std::string& name) {
  const std::string path = test::temp_path(name);
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

const RecoveredJob* find(const std::vector<RecoveredJob>& jobs,
                         const std::string& key) {
  for (const auto& j : jobs) {
    if (j.key == key) return &j;
  }
  return nullptr;
}

TEST(JobJournal, FreshJournalRecoversNothing) {
  auto j = JobJournal::open(temp_journal("jj_fresh.log"));
  EXPECT_TRUE(j->recovered().empty());
  EXPECT_FALSE(j->is_done("a/1"));
  EXPECT_TRUE(j->completed_frames("a/1").empty());
}

TEST(JobJournal, DoneJobReplaysFramesAfterReopen) {
  const std::string path = temp_journal("jj_done.log");
  {
    auto j = JobJournal::open(path);
    j->record_accept("a/1", false, R"({"job_kind":"simulate"})");
    j->record_result("a/1", R"({"op":"done","id":"1"})");
    j->record_done("a/1");
    EXPECT_TRUE(j->is_done("a/1"));
  }
  auto j = JobJournal::open(path);
  const auto* job = find(j->recovered(), "a/1");
  ASSERT_NE(job, nullptr);
  EXPECT_TRUE(job->done);
  ASSERT_EQ(job->frames.size(), 1u);
  EXPECT_EQ(job->frames[0], R"({"op":"done","id":"1"})");
  EXPECT_TRUE(j->is_done("a/1"));
  EXPECT_EQ(j->completed_frames("a/1").size(), 1u);
}

TEST(JobJournal, CrashBeforeDoneReplaysTheJobNotItsFrames) {
  const std::string path = temp_journal("jj_pending.log");
  {
    auto j = JobJournal::open(path);
    j->record_accept("a/1", true, R"({"job_kind":"simulate"})");
    // Crash mid-delivery: result recorded, done never written.
    j->record_result("a/1", R"({"op":"done","id":"1"})");
  }
  auto j = JobJournal::open(path);
  const auto* job = find(j->recovered(), "a/1");
  ASSERT_NE(job, nullptr);
  EXPECT_FALSE(job->done);
  EXPECT_TRUE(job->degraded);
  // Partial frames are dropped: the rerun regenerates them, so keeping
  // them could only ever produce a double delivery.
  EXPECT_TRUE(job->frames.empty());
  EXPECT_FALSE(j->is_done("a/1"));
  EXPECT_TRUE(j->completed_frames("a/1").empty());
}

TEST(JobJournal, MultipleJobsKeepSeparateLifecycles) {
  const std::string path = temp_journal("jj_multi.log");
  {
    auto j = JobJournal::open(path);
    j->record_accept("a/1", false, "{}");
    j->record_accept("b/1", false, "{}");
    j->record_result("b/1", R"({"op":"point","seq":1})");
    j->record_result("b/1", R"({"op":"done"})");
    j->record_done("b/1");
  }
  auto j = JobJournal::open(path);
  ASSERT_EQ(j->recovered().size(), 2u);
  EXPECT_FALSE(find(j->recovered(), "a/1")->done);
  const auto* b = find(j->recovered(), "b/1");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->done);
  EXPECT_EQ(b->frames.size(), 2u);
}

TEST(JobJournal, OutOfOrderCompletionKeepsPerKeyFrameOrder) {
  // lpmd's workers finish jobs in any order, so records for different
  // keys interleave arbitrarily in the file. The exactly-once contract
  // only needs per-key ordering (accept < results < done, results in
  // append order); this pins that recovery is grouped by key and never
  // leans on cross-job file order. Here jobs complete in the reverse of
  // their admission order with their frames fully interleaved.
  const std::string path = temp_journal("jj_ooo.log");
  {
    auto j = JobJournal::open(path);
    j->record_accept("a/1", false, "{}");
    j->record_accept("b/1", false, "{}");
    j->record_accept("c/1", false, "{}");
    j->record_result("c/1", R"({"op":"point","seq":1})");
    j->record_result("b/1", R"({"op":"point","seq":1})");
    j->record_result("c/1", R"({"op":"done"})");
    j->record_done("c/1");
    j->record_result("a/1", R"({"op":"done"})");
    j->record_result("b/1", R"({"op":"done"})");
    j->record_done("b/1");
    j->record_done("a/1");
  }
  auto j = JobJournal::open(path);
  ASSERT_EQ(j->recovered().size(), 3u);
  for (const char* key : {"a/1", "b/1", "c/1"}) {
    const auto* job = find(j->recovered(), key);
    ASSERT_NE(job, nullptr) << key;
    EXPECT_TRUE(job->done) << key;
    EXPECT_TRUE(j->is_done(key)) << key;
  }
  const auto b_frames = j->completed_frames("b/1");
  ASSERT_EQ(b_frames.size(), 2u);
  EXPECT_EQ(b_frames[0], R"({"op":"point","seq":1})");
  EXPECT_EQ(b_frames[1], R"({"op":"done"})");
  EXPECT_EQ(j->completed_frames("a/1").size(), 1u);
  EXPECT_EQ(j->completed_frames("c/1").size(), 2u);
}

TEST(JobJournal, TornTailIsHealed) {
  const std::string path = temp_journal("jj_torn.log");
  {
    auto j = JobJournal::open(path);
    j->record_accept("a/1", false, "{}");
    j->record_result("a/1", R"({"op":"done"})");
    j->record_done("a/1");
  }
  // Crash mid-append: a partial line with no newline at the tail.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "accept b/1 0 {\"job_ki";
  }
  auto j = JobJournal::open(path);
  ASSERT_EQ(j->recovered().size(), 1u);
  EXPECT_EQ(j->recovered()[0].key, "a/1");
  EXPECT_TRUE(j->is_done("a/1"));
}

TEST(JobJournal, ResultForUnknownKeyIsIgnored) {
  const std::string path = temp_journal("jj_orphan.log");
  {
    std::ofstream out(path, std::ios::binary);
    out << "result ghost/1 {\"op\":\"done\"}\n";
    out << "done ghost/1\n";
    out << "accept a/1 0 {}\n";
  }
  auto j = JobJournal::open(path);
  // Orphan records (no accept) carry no recoverable job.
  EXPECT_EQ(j->recovered().size(), 1u);
  EXPECT_EQ(j->recovered()[0].key, "a/1");
  EXPECT_FALSE(j->is_done("ghost/1"));
}

TEST(JobJournal, ReopenCompactsDeadBytes) {
  const std::string path = temp_journal("jj_compact.log");
  {
    auto j = JobJournal::open(path);
    for (int i = 0; i < 50; ++i) {
      const std::string key = "a/" + std::to_string(i);
      j->record_accept(key, false, "{}");
      j->record_result(key, R"({"op":"done"})");
      j->record_done(key);
    }
  }
  const auto before = slurp(path).size();
  // Reopen twice: size must stabilize (compaction is idempotent), and the
  // compacted file keeps completed frames for attach replay.
  (void)JobJournal::open(path);
  const auto once = slurp(path).size();
  auto j = JobJournal::open(path);
  EXPECT_EQ(slurp(path).size(), once);
  EXPECT_LE(once, before);
  EXPECT_TRUE(j->is_done("a/49"));
  EXPECT_EQ(j->completed_frames("a/49").size(), 1u);
}

TEST(JobJournal, RecordsSurviveAcrossThreeIncarnations) {
  const std::string path = temp_journal("jj_generations.log");
  {
    auto j = JobJournal::open(path);
    j->record_accept("a/1", false, "{}");
    j->record_result("a/1", R"({"op":"done","gen":1})");
    j->record_done("a/1");
  }
  {
    auto j = JobJournal::open(path);
    j->record_accept("a/2", false, "{}");
    // dies pending
  }
  auto j = JobJournal::open(path);
  EXPECT_TRUE(j->is_done("a/1"));
  ASSERT_EQ(j->completed_frames("a/1").size(), 1u);
  EXPECT_EQ(j->completed_frames("a/1")[0], R"({"op":"done","gen":1})");
  const auto* pending = find(j->recovered(), "a/2");
  ASSERT_NE(pending, nullptr);
  EXPECT_FALSE(pending->done);
}

}  // namespace
}  // namespace lpm::srv
