#include "srv/client.hpp"

#include <chrono>
#include <thread>

#include "srv/server.hpp"  // valid_name
#include "util/error.hpp"

namespace lpm::srv {

namespace {
using Clock = std::chrono::steady_clock;
}

Client::Client(std::string endpoint, std::string name)
    : endpoint_(std::move(endpoint)), name_(std::move(name)) {
  util::require(valid_name(name_), "Client: name must be [A-Za-z0-9._-]{1,64}");
  (void)Endpoint::parse(endpoint_);  // fail fast on a typo, not at connect()
}

void Client::connect(std::uint64_t budget_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
  for (;;) {
    try {
      fd_ = connect_endpoint(Endpoint::parse(endpoint_));
      JsonWriter hello;
      hello.str("op", "hello").str("client", name_).num_u64("proto",
                                                            kProtocolVersion);
      if (write_frame(fd_, hello.finish(), 1'000) == IoStatus::kOk) {
        std::string payload;
        if (read_frame(fd_, payload, 2'000) == IoStatus::kOk) {
          const util::FlatJson frame = util::FlatJson::parse(payload);
          const std::string op = frame.get_string("op").value_or("");
          if (op == "hello_ok") {
            recovered_ = static_cast<std::uint64_t>(
                frame.get_number("recovered").value_or(0.0));
            server_proto_ = static_cast<int>(
                frame.get_number("proto").value_or(1.0));
            return;
          }
          if (frame.get_string("code") == "unsupported_proto") {
            // Retrying cannot help — this build speaks the wrong protocol.
            fd_ = Fd();
            throw util::ConfigError(
                "Client: server at '" + endpoint_ +
                "' refused protocol " + std::to_string(kProtocolVersion));
          }
        }
      }
      fd_ = Fd();
    } catch (const util::IoError&) {
      fd_ = Fd();  // endpoint absent or mid-restart; retry it
    }
    if (Clock::now() >= deadline) {
      throw util::IoError("Client: cannot reach lpmd at '" + endpoint_ +
                          "' within " + std::to_string(budget_ms) + " ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

void Client::disconnect() { fd_ = Fd(); }

bool Client::send(const std::string& payload) {
  if (!fd_.valid()) return false;
  if (write_frame(fd_, payload, 2'000) != IoStatus::kOk) {
    disconnect();
    return false;
  }
  return true;
}

bool Client::submit(const std::string& id, const JobSpec& spec) {
  JsonWriter out;
  out.str("op", "submit").str("id", id);
  spec.encode(out);
  return send(out.finish());
}

bool Client::attach(const std::string& id) {
  JsonWriter out;
  out.str("op", "attach").str("id", id);
  return send(out.finish());
}

bool Client::ping() {
  JsonWriter out;
  out.str("op", "ping");
  return send(out.finish());
}

bool Client::request_stats() {
  JsonWriter out;
  out.str("op", "stats");
  return send(out.finish());
}

bool Client::request_shutdown() {
  JsonWriter out;
  out.str("op", "shutdown");
  return send(out.finish());
}

std::optional<util::FlatJson> Client::poll(int timeout_ms) {
  if (!fd_.valid()) return std::nullopt;
  std::string payload;
  const IoStatus status = read_frame(fd_, payload, timeout_ms);
  if (status == IoStatus::kTimeout) return std::nullopt;
  if (status == IoStatus::kClosed) {
    disconnect();
    return std::nullopt;
  }
  return util::FlatJson::parse(payload);
}

}  // namespace lpm::srv
