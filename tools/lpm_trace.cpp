// Trace-file workbench for the LPM2 streaming format (see DESIGN.md and the
// header comments in src/trace/lpm2.hpp).
//
//   $ lpm_trace record workload=403.gcc out=gcc.lpm2 [length=N] [seed=S]
//   $ lpm_trace convert replay=lpm-repro-7.json out=case.lpm2 [core=0]
//   $ lpm_trace convert lpmt=old.lpmt out=new.lpm2
//   $ lpm_trace info file=gcc.lpm2
//   $ lpm_trace verify file=gcc.lpm2
//
// record  — generate one of the 16 synthetic SPEC analogue profiles and
//           stream it to disk as LPM2.
// convert — replay=: lift one core's micro-op stream out of an
//           lpm-replay-v1 JSON repro (the differential harness's exchange
//           format) into LPM2, so a divergence case can be replayed from
//           disk. lpmt=: copy the records of a v1 "LPMT" file into LPM2 —
//           the only way v1 recordings load.
// info    — print the validated header (version, count, checksum, bytes).
// verify  — full drain: header, record type bytes, content checksum.
//
// Exit status: 0 = ok, 1 = verification failed / corrupt file, 2 = usage.
#include <cstdio>

#include "check/replay.hpp"
#include "lpm.hpp"
#include "util/config.hpp"

namespace {

void print_info(const char* path, const lpm::trace::TraceFileInfo& info) {
  std::printf("%s: LPM v%u, %llu ops, checksum %016llx, %llu bytes\n", path,
              info.version, static_cast<unsigned long long>(info.count),
              static_cast<unsigned long long>(info.checksum),
              static_cast<unsigned long long>(info.file_bytes));
}

int usage() {
  std::fprintf(
      stderr,
      "usage: lpm_trace record workload=NAME out=FILE [length=N] [seed=S]\n"
      "       lpm_trace convert replay=FILE out=FILE [core=0]\n"
      "       lpm_trace convert lpmt=FILE out=FILE\n"
      "       lpm_trace info file=FILE\n"
      "       lpm_trace verify file=FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lpm;
  try {
    const auto args = util::KvConfig::from_args(argc, argv);
    if (args.positional().empty()) return usage();
    const std::string cmd = args.positional().front();

    if (cmd == "record") {
      const std::string workload = args.get_or("workload", "");
      const std::string out = args.get_or("out", "");
      if (workload.empty() || out.empty()) return usage();
      const std::uint64_t length = args.get_uint_or("length", 100'000);
      const std::uint64_t seed = args.get_uint_or("seed", 1);
      // Route through TraceSpec so the name vocabulary ("403.gcc", ...)
      // and its unknown-name error stay identical to lpm::simulate's.
      const TraceSpec spec = TraceSpec::spec(workload, length, seed);
      trace::SyntheticTrace source(spec.workloads.front());
      const std::uint64_t checksum = trace::record_trace_v2(source, out);
      std::printf("recorded %s: checksum %016llx -> %s\n", workload.c_str(),
                  static_cast<unsigned long long>(checksum), out.c_str());
      print_info(out.c_str(), trace::inspect_trace(out));
      return 0;
    }

    if (cmd == "convert") {
      const std::string replay = args.get_or("replay", "");
      const std::string lpmt = args.get_or("lpmt", "");
      const std::string out = args.get_or("out", "");
      if (replay.empty() == lpmt.empty() || out.empty()) return usage();
      if (!lpmt.empty()) {
        const std::uint64_t checksum = trace::convert_lpmt_trace(lpmt, out);
        std::printf("converted %s: checksum %016llx -> %s\n", lpmt.c_str(),
                    static_cast<unsigned long long>(checksum), out.c_str());
        print_info(out.c_str(), trace::inspect_trace(out));
        return 0;
      }
      const auto core = static_cast<std::size_t>(args.get_uint_or("core", 0));
      const check::ReplayCase c = check::load_replay(replay);
      if (core >= c.ops.size()) {
        std::fprintf(stderr, "error: replay has %zu core(s); core=%zu is out of range\n",
                     c.ops.size(), core);
        return 2;
      }
      trace::VectorTrace source("replay:" + replay, c.ops[core]);
      const std::uint64_t checksum = trace::record_trace_v2(source, out);
      std::printf("converted core %zu of %s: %zu ops, checksum %016llx -> %s\n",
                  core, replay.c_str(), c.ops[core].size(),
                  static_cast<unsigned long long>(checksum), out.c_str());
      return 0;
    }

    if (cmd == "info" || cmd == "verify") {
      std::string file = args.get_or("file", "");
      if (file.empty() && args.positional().size() > 1) file = args.positional()[1];
      if (file.empty()) return usage();
      if (cmd == "info") {
        print_info(file.c_str(), trace::inspect_trace(file));
        return 0;
      }
      try {
        print_info(file.c_str(), trace::verify_trace(file));
        std::printf("verify: ok\n");
        return 0;
      } catch (const util::IoError& e) {
        std::fprintf(stderr, "verify FAILED: %s\n", e.what());
        return 1;
      }
    }

    return usage();
  } catch (const util::LpmError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
