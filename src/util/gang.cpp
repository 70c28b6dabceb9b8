#include "util/gang.hpp"

#include <algorithm>
#include <atomic>

#include "util/require.hpp"

namespace ptecps::util {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

Gang::Gang(std::size_t workers) : n_(workers) {
  PTE_REQUIRE(workers >= 1, "a gang needs at least one worker");
  if (n_ == 1) return;
  errors_.resize(n_);
  threads_.reserve(n_ - 1);
  try {
    for (std::size_t w = 1; w < n_; ++w) threads_.emplace_back([this, w] { worker_loop(w); });
  } catch (...) {
    stop_and_join();  // a thread that could not start leaves no worker running
    throw;
  }
}

Gang::~Gang() { stop_and_join(); }

void Gang::stop_and_join() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    ++generation_;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Gang::run(const std::function<void(std::size_t)>& fn) {
  if (n_ == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    fn_ = &fn;
    pending_ = n_ - 1;
    ++generation_;
  }
  cv_.notify_all();
  try {
    fn(0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return pending_ == 0; });
    fn_ = nullptr;
  }
  std::exception_ptr first;
  for (std::exception_ptr& e : errors_) {
    if (!first) first = e;
    e = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void Gang::for_each(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  // One fetch_add hands a worker a contiguous chunk, so the shared cursor
  // is touched ~chunk x less often than per item, while about sixteen
  // chunks per worker keep the tail (a worker's last chunk, run while
  // the others idle) small.
  const std::size_t chunk = std::clamp<std::size_t>(n / (n_ * 16), 1, 64);
  alignas(64) std::atomic<std::size_t> cursor{0};
  run([&](std::size_t w) {
    while (true) {
      const std::size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(begin + chunk, n);
      for (std::size_t i = begin; i < end; ++i) fn(i, w);
    }
  });
}

void Gang::worker_loop(std::size_t w) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(std::size_t)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
    }
    try {
      (*fn)(w);
    } catch (...) {
      errors_[w] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace ptecps::util
