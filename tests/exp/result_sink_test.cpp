// Crash-safe structured output: RFC 4180 CSV encoding round-trips any tag,
// reopening a sink heals a torn final line without duplicating the header,
// and JSON records escape every control character.
#include "exp/result_sink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/temp_path.hpp"
#include "exp/experiment_engine.hpp"
#include "trace/spec_like.hpp"

namespace lpm {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = test::temp_path(name);
  std::filesystem::remove(path);
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CsvField, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(exp::csv_field("plain"), "plain");
  EXPECT_EQ(exp::csv_field(""), "");
  EXPECT_EQ(exp::csv_field("has space"), "has space");
  EXPECT_EQ(exp::csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(exp::csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(exp::csv_field("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(exp::csv_field("cr\rhere"), "\"cr\rhere\"");
}

TEST(CsvField, RoundTripsThroughSplit) {
  const std::vector<std::string> fields = {
      "plain", "", "a,b", "say \"hi\"", "two\nlines", "mix,\"of\nall\"",
  };
  std::string record;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) record += ',';
    record += exp::csv_field(fields[i]);
  }
  EXPECT_EQ(exp::split_csv_record(record), fields);
}

TEST(ResultSink, CsvTagWithCommaAndQuoteRoundTrips) {
  std::ostringstream csv;
  exp::ResultSink sink(csv, exp::ResultSink::Format::kCsv);

  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  opts.sink = &sink;
  exp::ExperimentEngine engine(opts);

  auto job = exp::SimJob::solo(
      sim::MachineConfig::single_core_default(),
      trace::spec_profile(trace::SpecBenchmark::kGcc, 10'000, 7),
      /*calibrate=*/false, "tricky, \"tag\"");
  (void)engine.run(job);

  std::istringstream lines(csv.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  const auto fields = exp::split_csv_record(row);
  ASSERT_FALSE(fields.empty());
  EXPECT_EQ(fields[0], "tricky, \"tag\"") << "row: " << row;
}

TEST(ResultSink, ReopenHealsTornLineAndKeepsSingleHeader) {
  const std::string path = temp_path("lpm_sink_torn.csv");

  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  exp::ExperimentEngine engine(opts);
  const auto job = exp::SimJob::solo(
      sim::MachineConfig::single_core_default(),
      trace::spec_profile(trace::SpecBenchmark::kGcc, 10'000, 7),
      /*calibrate=*/false, "first");

  {
    auto sink = exp::ResultSink::open(path);
    engine.set_sink(sink.get());
    (void)engine.run(job);
    engine.set_sink(nullptr);
  }
  // Simulate a crash mid-append: a partial record with no newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "torn-record,0000";
  }
  {
    auto sink = exp::ResultSink::open(path);
    engine.set_sink(sink.get());
    auto again = job;
    again.tag = "second";
    (void)engine.run(again);  // cache hit still writes a record
    engine.set_sink(nullptr);
  }

  const std::string text = slurp(path);
  EXPECT_EQ(text.find("torn-record"), std::string::npos)
      << "torn line must be truncated away:\n"
      << text;
  std::istringstream lines(text);
  std::string line;
  int headers = 0, rows = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("tag,fingerprint,", 0) == 0) {
      ++headers;
    } else if (!line.empty()) {
      ++rows;
    }
  }
  EXPECT_EQ(headers, 1) << "reopen must not duplicate the header:\n" << text;
  EXPECT_EQ(rows, 2) << text;
  std::filesystem::remove(path);
}

TEST(ResultSink, RecordsWallClockDurationInSink) {
  const std::string csv_path = temp_path("lpm_sink_duration.csv");

  const auto job = exp::SimJob::solo(
      sim::MachineConfig::single_core_default(),
      trace::spec_profile(trace::SpecBenchmark::kGcc, 10'000, 7),
      /*calibrate=*/false, "timed");

  {
    auto sink = exp::ResultSink::open(csv_path);
    exp::ExperimentEngine::Options opts;
    opts.threads = 1;
    opts.sink = sink.get();
    exp::ExperimentEngine engine(opts);
    const auto results = engine.run_batch({job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0]->duration_ms, 0.0);
  }

  // CSV: trailing duration_ms column, non-negative and parseable.
  std::istringstream lines(slurp(csv_path));
  std::string header, row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  const auto header_fields = exp::split_csv_record(header);
  const auto row_fields = exp::split_csv_record(row);
  ASSERT_FALSE(header_fields.empty());
  ASSERT_EQ(row_fields.size(), header_fields.size());
  EXPECT_EQ(header_fields.back(), "duration_ms");
  EXPECT_GE(std::stod(row_fields.back()), 0.0);

  std::filesystem::remove(csv_path);
}

// One fixed record pins the exact row text both formats write. lpmbench
// reads `duration_ms` back from the JSON-lines row, so any change in these
// bytes moves a benchmark metric with no change in the program.
exp::ResultRecord pinned_record() {
  exp::ResultRecord r;
  r.tag = "walk \"a\",b";
  r.fingerprint = "00ff00ff00ff00ff";
  r.backend = "rdh";
  r.from_cache = true;
  r.completed = true;
  r.cycles = 123456789012;
  r.cores = 4;
  r.instructions = 987654321;
  r.ipc = 1.23456789;
  r.mr1 = 0.0421;
  r.mr2 = 0.5;
  r.camat1 = 3.14159265;
  r.camat2 = 27.0;
  r.cpi_exe = 0.0;
  r.duration_ms = 12.3456;
  return r;
}

TEST(ResultSink, JsonLinesRowBytesArePinned) {
  std::ostringstream out;
  exp::ResultSink sink(out, exp::ResultSink::Format::kJsonLines);
  sink.write(pinned_record());
  EXPECT_EQ(out.str(),
            "{\"tag\":\"walk \\\"a\\\",b\",\"fingerprint\":\"00ff00ff00ff00ff\","
            "\"backend\":\"rdh\",\"from_cache\":true,\"completed\":true,"
            "\"cycles\":123456789012,\"cores\":4,\"instructions\":987654321,"
            "\"ipc\":1.234568,\"mr1\":0.042100,\"mr2\":0.500000,"
            "\"camat1\":3.141593,\"camat2\":27.000000,\"cpi_exe\":0.000000,"
            "\"duration_ms\":12.346}\n");
}

TEST(ResultSink, CsvRowBytesArePinned) {
  std::ostringstream out;
  exp::ResultSink sink(out, exp::ResultSink::Format::kCsv);
  sink.write(pinned_record());
  EXPECT_EQ(out.str(),
            "tag,fingerprint,backend,from_cache,completed,cycles,cores,"
            "instructions,ipc,mr1,mr2,camat1,camat2,cpi_exe,duration_ms\n"
            "\"walk \"\"a\"\",b\",00ff00ff00ff00ff,rdh,1,1,123456789012,4,"
            "987654321,1.234568,0.042100,0.500000,3.141593,27.000000,0.000000,"
            "12.346\n");
}

TEST(ResultSink, JsonEscapesControlCharacters) {
  std::ostringstream json;
  exp::ResultSink sink(json, exp::ResultSink::Format::kJsonLines);

  exp::ExperimentEngine::Options opts;
  opts.threads = 1;
  opts.sink = &sink;
  exp::ExperimentEngine engine(opts);

  auto job = exp::SimJob::solo(
      sim::MachineConfig::single_core_default(),
      trace::spec_profile(trace::SpecBenchmark::kGcc, 10'000, 7),
      /*calibrate=*/false, std::string("tab\there\nand\rmore\x01"));
  (void)engine.run(job);

  const std::string text = json.str();
  EXPECT_NE(text.find("\\t"), std::string::npos) << text;
  EXPECT_NE(text.find("\\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\\r"), std::string::npos) << text;
  EXPECT_NE(text.find("\\u0001"), std::string::npos) << text;
  // The record itself stays one physical line (JSON lines format).
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

}  // namespace
TEST(ResultRecords, RoundTripThroughCsvAndJsonl) {
  exp::ResultRecord r;
  r.tag = "sweep,one \"quoted\"\nmultiline";
  r.fingerprint = "00c0ffee";
  r.backend = "rdh";
  r.from_cache = true;
  r.completed = true;
  r.cycles = 123456;
  r.cores = 4;
  r.instructions = 654321;
  r.ipc = 1.25;
  r.mr1 = 0.03125;
  r.mr2 = 0.5;
  r.camat1 = 2.5;
  r.camat2 = 8.75;
  r.cpi_exe = 0.375;
  r.duration_ms = 42.125;

  for (const char* ext : {".csv", ".jsonl"}) {
    const std::string path = temp_path(std::string("lpm_records") + ext);
    {
      auto sink = exp::ResultSink::open(path);
      sink->write(r);
      sink->write(r);
    }
    const auto loaded = exp::load_result_records(path);
    ASSERT_EQ(loaded.size(), 2u) << ext;
    for (const auto& back : loaded) {
      EXPECT_EQ(back.tag, r.tag) << ext;
      EXPECT_EQ(back.fingerprint, r.fingerprint) << ext;
      EXPECT_EQ(back.backend, r.backend) << ext;
      EXPECT_EQ(back.from_cache, r.from_cache) << ext;
      EXPECT_EQ(back.completed, r.completed) << ext;
      EXPECT_EQ(back.cycles, r.cycles) << ext;
      EXPECT_EQ(back.cores, r.cores) << ext;
      EXPECT_EQ(back.instructions, r.instructions) << ext;
      EXPECT_DOUBLE_EQ(back.ipc, r.ipc) << ext;
      EXPECT_DOUBLE_EQ(back.mr1, r.mr1) << ext;
      EXPECT_DOUBLE_EQ(back.mr2, r.mr2) << ext;
      EXPECT_DOUBLE_EQ(back.camat1, r.camat1) << ext;
      EXPECT_DOUBLE_EQ(back.camat2, r.camat2) << ext;
      EXPECT_DOUBLE_EQ(back.cpi_exe, r.cpi_exe) << ext;
      EXPECT_DOUBLE_EQ(back.duration_ms, r.duration_ms) << ext;
    }
    std::filesystem::remove(path);
  }
}

TEST(ResultRecords, LegacyFilesWithoutBackendColumnLoadAsCycle) {
  // Sinks written before multi-fidelity backends have no `backend`
  // column/key; cycle simulation was the only fidelity that existed then.
  const std::string csv_path = temp_path("lpm_legacy_backend.csv");
  {
    std::ofstream out(csv_path);
    out << "tag,fingerprint,from_cache,completed,cycles,cores,instructions,"
           "ipc,mr1,mr2,camat1,camat2,cpi_exe,duration_ms\n";
    out << "old,abcd,0,1,10,1,20,2.0,0.1,0.2,1.5,4.5,0.5,0.25\n";
  }
  auto loaded = exp::load_result_records(csv_path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].backend, "cycle");
  std::filesystem::remove(csv_path);

  const std::string jsonl_path = temp_path("lpm_legacy_backend.jsonl");
  {
    std::ofstream out(jsonl_path);
    out << "{\"tag\":\"old\",\"fingerprint\":\"abcd\",\"from_cache\":false,"
           "\"completed\":true,\"cycles\":10,\"cores\":1,\"instructions\":20,"
           "\"ipc\":2.0,\"mr1\":0.1,\"mr2\":0.2,\"camat1\":1.5,"
           "\"camat2\":4.5,\"cpi_exe\":0.5,\"duration_ms\":0.25}\n";
  }
  loaded = exp::load_result_records(jsonl_path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].backend, "cycle");
  std::filesystem::remove(jsonl_path);
}

}  // namespace lpm
