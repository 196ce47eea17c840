#include "trace/helper_thread.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace lpm::trace {

std::thread start_helper_thread(std::function<void()> body) {
  std::thread helper(std::move(body));
#ifdef __linux__
  cpu_set_t cpus;
  const int self = sched_getcpu();
  if (self >= 0 &&
      pthread_getaffinity_np(pthread_self(), sizeof cpus, &cpus) == 0 &&
      CPU_ISSET(self, &cpus) && CPU_COUNT(&cpus) > 1) {
    CPU_CLR(self, &cpus);
    pthread_setaffinity_np(helper.native_handle(), sizeof cpus, &cpus);
  }
#endif
  return helper;
}

}  // namespace lpm::trace
