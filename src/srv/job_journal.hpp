// Job journal: lpmd's crash-recovery log.
//
// Three record kinds, one per line, appended in job-lifecycle order and
// flushed at every append (the same discipline — and the same torn-tail
// healing, util::trim_partial_last_line — as the ResultSink files):
//
//   accept <job-key> <degraded> <spec-json>     admitted, not yet finished
//   result <job-key> <frame-json>               one terminal/stream frame
//   done <job-key>                              all frames recorded
//
// `job-key` is "client/id" (both components use a restricted charset with
// no whitespace, enforced at the protocol layer, so the line format stays
// space-delimited). The JSON payloads are single-line by construction
// (util::JsonWriter never emits newlines), so one record is always one line.
//
// The ordering is the exactly-once contract:
//   execute → append result frames → append done → deliver to the client.
// A crash before `done` replays the job from its accept record (clients
// see the result once, from the rerun); a crash after `done` serves the
// recorded frames to a reattaching client without re-executing. At no
// interleaving can a job be both re-executed and double-delivered, because
// clients only attach ids they have not yet received a terminal frame for.
//
// recover() heals the torn tail, loads everything, and *compacts*: the
// file is rewritten keeping only completed jobs' frames (attach replay
// needs them) and pending jobs' accept records, so the journal does not
// accrete dead bytes across restarts.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace lpm::srv {

/// One journaled job as recover() reports it.
struct RecoveredJob {
  std::string key;        ///< "client/id"
  std::string spec_json;  ///< the admitted spec (post-degradation) frame
  bool degraded = false;
  bool done = false;
  /// Terminal/stream frames recorded so far (complete iff done).
  std::vector<std::string> frames;
};

class JobJournal {
 public:
  /// Opens `path`, healing and compacting any previous incarnation.
  /// Throws util::IoError when the path is unwritable.
  [[nodiscard]] static std::unique_ptr<JobJournal> open(const std::string& path);

  /// Jobs the previous incarnation accepted: pending ones (done == false,
  /// to re-enqueue) and completed ones (done == true, to serve attach).
  [[nodiscard]] const std::vector<RecoveredJob>& recovered() const {
    return recovered_;
  }

  /// Appends an accept record (admitted job, post-degradation spec).
  void record_accept(const std::string& key, bool degraded,
                     const std::string& spec_json);
  /// Appends one result frame for `key`.
  void record_result(const std::string& key, const std::string& frame_json);
  /// Marks `key` fully recorded; safe to deliver after this returns.
  void record_done(const std::string& key);

  /// The recorded frames for a completed job, or empty when unknown /
  /// unfinished. Serves client reattach after a restart.
  [[nodiscard]] std::vector<std::string> completed_frames(
      const std::string& key) const;
  [[nodiscard]] bool is_done(const std::string& key) const;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  explicit JobJournal(std::string path);
  void append_line(const std::string& line);

  std::string path_;
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::vector<RecoveredJob> recovered_;
  /// Completed jobs (recovered + this incarnation) and their frames, for
  /// attach replay; pending jobs are not tracked here (the server owns
  /// their live state).
  std::unordered_map<std::string, std::vector<std::string>> completed_;
  /// Frames recorded for not-yet-done jobs this incarnation; promoted to
  /// completed_ by record_done.
  std::unordered_map<std::string, std::vector<std::string>> pending_frames_;
};

}  // namespace lpm::srv
