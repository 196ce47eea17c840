#include "srv/job_journal.hpp"

#include <filesystem>
#include <map>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/torn_line.hpp"

namespace lpm::srv {

namespace {

/// Splits "verb key rest..." (rest may contain spaces — it is JSON).
/// Returns false for lines that do not have at least verb + key.
bool split_record(const std::string& line, std::string& verb, std::string& key,
                  std::string& rest) {
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) return false;
  verb = line.substr(0, sp1);
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    key = line.substr(sp1 + 1);
    rest.clear();
  } else {
    key = line.substr(sp1 + 1, sp2 - sp1 - 1);
    rest = line.substr(sp2 + 1);
  }
  return !key.empty();
}

}  // namespace

JobJournal::JobJournal(std::string path) : path_(std::move(path)) {}

std::unique_ptr<JobJournal> JobJournal::open(const std::string& path) {
  auto journal = std::unique_ptr<JobJournal>(new JobJournal(path));

  // Load phase: heal the torn tail, then replay records in file order.
  // A std::map keyed by key keeps recovery deterministic (journal replay
  // order on restart is sorted, not arrival-order, which is fine — the
  // admission queue re-interleaves per client anyway).
  std::map<std::string, RecoveredJob> jobs;
  if (std::filesystem::exists(path)) {
    const std::uintmax_t trimmed = util::trim_partial_last_line(path);
    if (trimmed > 0) {
      util::log_warn() << "job journal '" << path << "': dropped " << trimmed
                       << " byte(s) of torn final line";
    }
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      std::string verb;
      std::string key;
      std::string rest;
      if (!split_record(line, verb, key, rest)) continue;  // damaged: skip
      if (verb == "accept") {
        RecoveredJob job;
        job.key = key;
        // rest = "<degraded> <spec-json>"
        const std::size_t sp = rest.find(' ');
        if (sp == std::string::npos) continue;
        job.degraded = rest.substr(0, sp) == "1";
        job.spec_json = rest.substr(sp + 1);
        jobs[key] = std::move(job);
      } else if (verb == "result") {
        const auto it = jobs.find(key);
        if (it != jobs.end() && !rest.empty()) {
          it->second.frames.push_back(rest);
        }
      } else if (verb == "done") {
        const auto it = jobs.find(key);
        if (it != jobs.end()) it->second.done = true;
      }
    }
  }

  for (auto& [key, job] : jobs) {
    if (job.done) {
      journal->completed_[key] = job.frames;
    } else {
      // Partial result frames of an unfinished job are rerun leftovers;
      // the replay will regenerate them, so they are dropped here.
      job.frames.clear();
    }
    journal->recovered_.push_back(std::move(job));
  }

  // Compact phase: rewrite through a temp file + rename so a crash during
  // compaction leaves either the old journal or the new one, never a
  // half-written file that parses wrong.
  const std::string tmp = path + ".compact";
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc);
    if (!out.is_open()) {
      throw util::IoError("JobJournal: cannot write '" + tmp + "'");
    }
    for (const RecoveredJob& job : journal->recovered_) {
      out << "accept " << job.key << ' ' << (job.degraded ? '1' : '0') << ' '
          << job.spec_json << '\n';
      if (job.done) {
        for (const std::string& frame : job.frames) {
          out << "result " << job.key << ' ' << frame << '\n';
        }
        out << "done " << job.key << '\n';
      }
    }
    out.flush();
    if (!out) throw util::IoError("JobJournal: compaction write failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw util::IoError("JobJournal: rename '" + tmp + "' -> '" + path +
                        "': " + ec.message());
  }

  journal->out_.open(path, std::ios::out | std::ios::app);
  if (!journal->out_.is_open()) {
    throw util::IoError("JobJournal: cannot open '" + path + "' for append");
  }
  return journal;
}

void JobJournal::record_accept(const std::string& key, bool degraded,
                               const std::string& spec_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  append_line("accept " + key + ' ' + (degraded ? "1" : "0") + ' ' + spec_json);
}

void JobJournal::record_result(const std::string& key,
                               const std::string& frame_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  append_line("result " + key + ' ' + frame_json);
  pending_frames_[key].push_back(frame_json);
}

void JobJournal::record_done(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  append_line("done " + key);
  const auto it = pending_frames_.find(key);
  if (it != pending_frames_.end()) {
    completed_[key] = std::move(it->second);
    pending_frames_.erase(it);
  } else {
    completed_[key];  // done with zero frames: still answer attach
  }
}

std::vector<std::string> JobJournal::completed_frames(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = completed_.find(key);
  return it == completed_.end() ? std::vector<std::string>{} : it->second;
}

bool JobJournal::is_done(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_.contains(key);
}

void JobJournal::append_line(const std::string& line) {
  out_ << line << '\n';
  out_.flush();
  if (!out_) {
    throw util::IoError("JobJournal: append to '" + path_ + "' failed");
  }
}

}  // namespace lpm::srv
