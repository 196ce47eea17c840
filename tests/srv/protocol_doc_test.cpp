// Locks docs/PROTOCOL.md to the protocol the code actually speaks, in
// both directions (the OBSERVABILITY.md catalogue-test pattern):
//
//   * every op in wire.cpp's request_ops()/response_ops() has a matching
//     "#### `<op>` — request|response" section in the doc, and every such
//     section names an op the code still dispatches;
//   * every `job_*` key JobSpec::encode() can emit is documented, and the
//     doc mentions no `job_*` key the codec dropped;
//   * every protocol error code appears in the doc, and the doc's version
//     and frame-cap literals match wire.hpp's constants;
//   * a live server answers each request op with a response op from
//     response_ops() — the lists describe reality, not intent.
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/temp_path.hpp"
#include "srv/client.hpp"
#include "srv/job_spec.hpp"
#include "srv/server.hpp"
#include "srv/wire.hpp"
#include "util/flat_json.hpp"

namespace lpm::srv {
namespace {

std::string read_doc() {
  std::ifstream in(LPM_PROTOCOL_MD);
  EXPECT_TRUE(in.good()) << "cannot open " << LPM_PROTOCOL_MD;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Ops from "#### `<op>` — request" / "— response" headings.
std::set<std::string> doc_ops(const std::string& doc, const std::string& kind) {
  // The em dash is three UTF-8 bytes; regex treats them as plain chars.
  const std::regex heading("#### `([a-z_]+)` — " + kind);
  std::set<std::string> ops;
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), heading);
       it != std::sregex_iterator(); ++it) {
    ops.insert((*it)[1].str());
  }
  return ops;
}

/// Every distinct backticked `job_*` token in the doc.
std::set<std::string> doc_job_keys(const std::string& doc) {
  const std::regex token("`(job_[a-z0-9_]+)`");
  std::set<std::string> keys;
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), token);
       it != std::sregex_iterator(); ++it) {
    keys.insert((*it)[1].str());
  }
  return keys;
}

TEST(ProtocolDoc, RequestOpsMatchDocSections) {
  const std::string doc = read_doc();
  const std::set<std::string> documented = doc_ops(doc, "request");
  const std::set<std::string> coded(request_ops().begin(), request_ops().end());
  EXPECT_EQ(coded, documented)
      << "request op vocabulary drifted between src/srv/wire.cpp and "
         "docs/PROTOCOL.md";
}

TEST(ProtocolDoc, ResponseOpsMatchDocSections) {
  const std::string doc = read_doc();
  const std::set<std::string> documented = doc_ops(doc, "response");
  const std::set<std::string> coded(response_ops().begin(),
                                    response_ops().end());
  EXPECT_EQ(coded, documented)
      << "response op vocabulary drifted between src/srv/wire.cpp and "
         "docs/PROTOCOL.md";
}

TEST(ProtocolDoc, JobSpecKeysMatchDoc) {
  // A spec with every optional field set emits the complete key set.
  JobSpec spec;
  spec.kind = "sweep";
  spec.l1_kb = 16;
  spec.l1_assoc = 2;
  spec.l2_kb = 256;
  spec.mshr = 8;
  spec.cores = 2;
  spec.deadline_ms = 1000;
  spec.trace_file = "/tmp/trace.lpm2";
  spec.sweep_knob = "l1_kb";
  spec.sweep_values = "16,32";
  JsonWriter out;
  spec.encode(out);
  const util::FlatJson frame = util::FlatJson::parse(out.finish());

  std::set<std::string> coded;
  for (const std::string& key : frame.keys()) {
    if (key.rfind("job_", 0) == 0) coded.insert(key);
  }
  ASSERT_GE(coded.size(), 16u) << "encode() emitted fewer keys than expected "
                                  "— update this test's fully-populated spec";
  EXPECT_EQ(coded, doc_job_keys(read_doc()))
      << "job_* field vocabulary drifted between src/srv/job_spec.cpp and "
         "docs/PROTOCOL.md";
}

TEST(ProtocolDoc, ErrorCodesAreDocumented) {
  const std::string doc = read_doc();
  for (const std::string& code : protocol_error_codes()) {
    EXPECT_NE(doc.find("`" + code + "`"), std::string::npos)
        << "error code '" << code << "' missing from docs/PROTOCOL.md";
  }
}

TEST(ProtocolDoc, VersionAndFrameCapLiteralsMatch) {
  const std::string doc = read_doc();
  EXPECT_NE(doc.find("Protocol version: " + std::to_string(kProtocolVersion)),
            std::string::npos)
      << "docs/PROTOCOL.md must state 'Protocol version: "
      << kProtocolVersion << "'";
  EXPECT_NE(doc.find(std::to_string(kMaxFramePayload)), std::string::npos)
      << "docs/PROTOCOL.md must state the frame cap ("
      << kMaxFramePayload << ")";
}

// The op lists must describe a live server, not a stale table: drive one
// frame of every request op and require an answer from response_ops().
TEST(ProtocolDoc, LiveServerAnswersEveryRequestOpFromResponseOps) {
  Server::Options opts;
  opts.endpoint = test::temp_path("lpmd.sock");
  opts.workers = 1;
  Server server(opts);
  server.start();

  const std::set<std::string> responses(response_ops().begin(),
                                        response_ops().end());
  Client client(opts.endpoint, "doc");
  client.connect(5'000);  // hello -> hello_ok exercised inside

  JobSpec spec;
  spec.backend = "rdh";  // analytic: instant
  spec.length = 1000;
  ASSERT_TRUE(client.submit("j1", spec));
  ASSERT_TRUE(client.attach("nonexistent"));  // -> error (unknown_job)
  ASSERT_TRUE(client.ping());                 // -> pong
  ASSERT_TRUE(client.request_stats());        // -> stats

  std::set<std::string> seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  // submit yields ack then done; the others one frame each.
  while (seen.size() < 5 && std::chrono::steady_clock::now() < deadline) {
    const auto frame = client.poll(500);
    if (!frame) continue;
    const std::string op = frame->get_string("op").value_or("");
    EXPECT_TRUE(responses.contains(op))
        << "server answered with op '" << op << "' not in response_ops()";
    seen.insert(op);
  }
  EXPECT_TRUE(seen.contains("ack"));
  EXPECT_TRUE(seen.contains("done"));
  EXPECT_TRUE(seen.contains("error"));
  EXPECT_TRUE(seen.contains("pong"));
  EXPECT_TRUE(seen.contains("stats"));

  ASSERT_TRUE(client.request_shutdown());
  const auto bye = client.poll(3'000);
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(bye->get_string("op").value_or(""), "shutdown_ok");
  server.stop();
}

}  // namespace
}  // namespace lpm::srv
