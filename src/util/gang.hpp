// A fork-join worker gang: persistent threads behind a broadcast-and-join
// barrier.  The zone checker runs its expand and absorb phases on one,
// and a campaign runs its Monte-Carlo seeds on one.  With one worker the
// gang starts no thread and runs everything inline on the calling thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ptecps::util {

/// `requested` worker threads, or the hardware concurrency (at least 1)
/// when `requested` is 0.
std::size_t resolve_threads(std::size_t requested);

class Gang {
 public:
  explicit Gang(std::size_t workers);
  ~Gang();
  Gang(const Gang&) = delete;
  Gang& operator=(const Gang&) = delete;

  /// Run fn(w) for every w in [0, workers) — w = 0 on the calling thread
  /// — and return once all have finished.  If any fn threw, the lowest
  /// such w's exception is rethrown after that barrier.
  void run(const std::function<void(std::size_t)>& fn);

  /// Run fn(i, w) once for every i in [0, n), where w is the worker
  /// running it.  Workers claim contiguous chunks of indices from one
  /// shared cursor, so a worker whose items finish quickly takes over
  /// the slack of one whose items run long.  Exceptions as for run().
  void for_each(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop(std::size_t w);
  /// Stop every started worker and join it.
  void stop_and_join();

  std::size_t n_;
  /// Worker w's exception from the current run; read after the barrier.
  std::vector<std::exception_ptr> errors_;
  std::mutex mu_;  // guards fn_, pending_, generation_ and stop_
  std::condition_variable cv_;       // a new generation, or stop_
  std::condition_variable done_cv_;  // pending_ reached 0
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: the workers use every member above
};

}  // namespace ptecps::util
