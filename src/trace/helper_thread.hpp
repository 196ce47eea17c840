// The trace layer's helper threads: ReadAhead's generator and the LPM2
// recorder's writer.
#pragma once

#include <functional>
#include <thread>

namespace lpm::trace {

/// Starts `body` on a new thread kept off the calling thread's CPU. A
/// thread woken by another tends to run on its waker's CPU, and where the
/// scheduler does not balance load (a cpuset with sched_load_balance=0)
/// nothing moves it away: the helper then time-shares its caller's CPU and
/// hides nothing. Best effort: with one allowed CPU, or if a call fails,
/// the helper runs wherever it lands.
[[nodiscard]] std::thread start_helper_thread(std::function<void()> body);

}  // namespace lpm::trace
