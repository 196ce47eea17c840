// lpmc — command-line client for lpmd.
//
//   $ ./lpmc cmd=simulate [endpoint=/tmp/lpmd.sock] [name=lpmc] [id=job1]
//            [workload=403.gcc] [length=20000] [seed=1] [machine=default]
//            [l1_kb=0] [l1_assoc=0] [l2_kb=0] [mshr=0] [cores=0]
//            [backend=cycle] [calibrate=1] [degrade_ok=1] [deadline_ms=0]
//            [trace_file=/path/to.lpm2]   # replay a recorded trace instead
//                                         # of the synthetic workload=
//   $ ./lpmc cmd=sweep sweep_knob=l1_kb sweep_values=16,32,64 ...
//   $ ./lpmc cmd=walk workload=410.bwaves length=10000
//   $ ./lpmc cmd=attach id=job1         # pick up results after a restart
//   $ ./lpmc cmd=ping | cmd=stats | cmd=shutdown
//
// `endpoint` accepts any wire::Endpoint spelling ("unix:<path>",
// "tcp:<host>:<port>", bare unix path).
//
// Submits one job, then prints every frame the server streams back (one
// JSON object per line) until the job's terminal frame (done/error)
// arrives. Honors the backpressure protocol: retry_after and overload
// responses are retried after the server's hint, so a saturated server
// slows lpmc down instead of failing it.
//
// Exit status: 0 = terminal done frame, 1 = terminal error frame,
// 2 = usage/config error, 3 = cannot reach the server.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "srv/client.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

int main(int argc, char** argv) {
  using namespace lpm;
  try {
    const auto args = util::KvConfig::from_args(argc, argv);
    const std::string cmd = args.get_or("cmd", "simulate");
    const std::string name = args.get_or("name", "lpmc");
    const std::string id = args.get_or("id", "job1");

    srv::Client client(args.get_or("endpoint", "/tmp/lpmd.sock"), name);
    client.connect(args.get_uint_or("connect_budget_ms", 5'000));

    if (cmd == "ping" || cmd == "stats" || cmd == "shutdown") {
      if (cmd == "ping") client.ping();
      if (cmd == "stats") client.request_stats();
      if (cmd == "shutdown") client.request_shutdown();
      const auto reply = client.poll(3'000);
      if (!reply) {
        std::fprintf(stderr, "lpmc: no reply\n");
        return 3;
      }
      std::printf("op=%s queue_depth=%.0f\n",
                  reply->get_string("op").value_or("?").c_str(),
                  reply->get_number("queue_depth").value_or(0.0));
      return 0;
    }

    srv::JobSpec spec;
    if (cmd == "attach") {
      client.attach(id);
    } else {
      spec.kind = cmd;
      spec.workload = args.get_or("workload", spec.workload);
      spec.trace_file = args.get_or("trace_file", spec.trace_file);
      spec.length = args.get_uint_or("length", 20'000);
      spec.seed = args.get_uint_or("seed", spec.seed);
      spec.machine = args.get_or("machine", spec.machine);
      spec.l1_kb = args.get_uint_or("l1_kb", 0);
      spec.l1_assoc = static_cast<std::uint32_t>(args.get_uint_or("l1_assoc", 0));
      spec.l2_kb = args.get_uint_or("l2_kb", 0);
      spec.mshr = static_cast<std::uint32_t>(args.get_uint_or("mshr", 0));
      spec.cores = static_cast<std::uint32_t>(args.get_uint_or("cores", 0));
      spec.backend = args.get_or("backend", spec.backend);
      spec.calibrate = args.get_bool_or("calibrate", spec.calibrate);
      spec.degrade_ok = args.get_bool_or("degrade_ok", spec.degrade_ok);
      spec.deadline_ms = args.get_uint_or("deadline_ms", 0);
      spec.sweep_knob = args.get_or("sweep_knob", "");
      spec.sweep_values = args.get_or("sweep_values", "");
      spec.validate();
      client.submit(id, spec);
    }

    // Drain frames until this job's terminal frame. Backpressure responses
    // reschedule the submit after the server's hint.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(
                              args.get_uint_or("wait_budget_ms", 600'000));
    while (std::chrono::steady_clock::now() < deadline) {
      const auto frame = client.poll(1'000);
      if (!frame) {
        if (!client.connected()) {
          std::fprintf(stderr, "lpmc: server closed the connection\n");
          return 3;
        }
        continue;
      }
      const std::string op = frame->get_string("op").value_or("");
      const std::string frame_id = frame->get_string("id").value_or("");
      if (frame_id != id && op != "pong") continue;

      if (op == "retry_after" ||
          (op == "error" &&
           frame->get_string("code").value_or("") == "overload")) {
        const auto hint_ms = static_cast<std::uint64_t>(
            frame->get_number("retry_after_ms").value_or(200.0));
        std::fprintf(stderr, "lpmc: backpressure (%s); retrying in %llu ms\n",
                     op.c_str(), static_cast<unsigned long long>(hint_ms));
        std::this_thread::sleep_for(std::chrono::milliseconds(hint_ms));
        client.submit(id, spec);
        continue;
      }
      if (op == "ack") {
        std::fprintf(stderr, "lpmc: %s (degraded=%s)\n",
                     frame->get_string("status").value_or("?").c_str(),
                     frame->get_bool("degraded").value_or(false) ? "yes"
                                                                 : "no");
        continue;
      }
      if (op == "point") {
        std::printf("point seq=%.0f/%.0f ipc=%.4f cycles=%.0f degraded=%s\n",
                    frame->get_number("seq").value_or(0.0),
                    frame->get_number("of").value_or(0.0),
                    frame->get_number("ipc").value_or(0.0),
                    frame->get_number("cycles").value_or(0.0),
                    frame->get_bool("degraded").value_or(false) ? "yes" : "no");
        continue;
      }
      if (op == "done") {
        if (frame->has("final_config")) {
          std::printf("done final=%s converged=%s\n",
                      frame->get_string("final_config").value_or("?").c_str(),
                      frame->get_bool("converged").value_or(false) ? "yes"
                                                                   : "no");
        } else if (frame->has("points")) {
          std::printf("done points=%.0f ok=%.0f\n",
                      frame->get_number("points").value_or(0.0),
                      frame->get_number("points_ok").value_or(0.0));
        } else {
          std::printf(
              "done backend=%s ipc=%.4f cycles=%.0f mr1=%.4f degraded=%s\n",
              frame->get_string("backend").value_or("?").c_str(),
              frame->get_number("ipc").value_or(0.0),
              frame->get_number("cycles").value_or(0.0),
              frame->get_number("mr1").value_or(0.0),
              frame->get_bool("degraded").value_or(false) ? "yes" : "no");
        }
        return 0;
      }
      if (op == "error") {
        std::fprintf(stderr, "lpmc: job failed: %s: %s\n",
                     frame->get_string("code").value_or("?").c_str(),
                     frame->get_string("message").value_or("").c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "lpmc: timed out waiting for results\n");
    return 3;
  } catch (const util::IoError& e) {
    std::fprintf(stderr, "lpmc: io error: %s\n", e.what());
    return 3;
  } catch (const util::LpmError& e) {
    std::fprintf(stderr, "lpmc: %s\n", e.what());
    return 2;
  }
}
