#include "service/metrics.hpp"

#include <algorithm>

namespace ptecps::service {

namespace {

/// Nearest-rank percentile over an unsorted copy; 0 when empty.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

}  // namespace

util::Json ServiceMetrics::to_json(std::size_t queue_depth, std::size_t queue_capacity,
                                   std::size_t workers, bool draining,
                                   const util::Json* cache_stats) const {
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    window = latencies_;
  }
  const double uptime = uptime_seconds();
  const std::uint64_t done = completed();

  util::Json out = util::Json::object();
  out.set("uptime_seconds", uptime);
  out.set("draining", draining);
  out.set("workers", workers);

  util::Json jobs = util::Json::object();
  jobs.set("admitted", admitted_.load(std::memory_order_relaxed));
  jobs.set("completed", done);
  jobs.set("failed", failed_.load(std::memory_order_relaxed));
  jobs.set("rejected_queue_full", rejected_full_.load(std::memory_order_relaxed));
  jobs.set("rejected_draining", rejected_draining_.load(std::memory_order_relaxed));
  jobs.set("protocol_errors", protocol_errors_.load(std::memory_order_relaxed));
  jobs.set("per_second", uptime > 0.0 ? static_cast<double>(done) / uptime : 0.0);
  out.set("jobs", std::move(jobs));

  util::Json latency = util::Json::object();
  latency.set("window", window.size());
  latency.set("p50_ms", percentile(window, 50.0));
  latency.set("p95_ms", percentile(window, 95.0));
  latency.set("max_ms", window.empty() ? 0.0 : *std::max_element(window.begin(), window.end()));
  out.set("latency_ms", std::move(latency));

  util::Json queue = util::Json::object();
  queue.set("depth", queue_depth);
  queue.set("capacity", queue_capacity);
  out.set("queue", std::move(queue));

  util::Json conn = util::Json::object();
  conn.set("accepted", connections_.load(std::memory_order_relaxed));
  conn.set("http_requests", http_requests_.load(std::memory_order_relaxed));
  out.set("connections", std::move(conn));

  const std::uint64_t hits = cache_hits_.load(std::memory_order_relaxed);
  const std::uint64_t misses = cache_misses_.load(std::memory_order_relaxed);
  util::Json cache = util::Json::object();
  cache.set("enabled", cache_stats != nullptr);
  cache.set("hits", hits);
  cache.set("misses", misses);
  cache.set("hit_rate",
            hits + misses > 0
                ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                : 0.0);
  if (cache_stats != nullptr) cache.set("store", *cache_stats);
  out.set("cache", std::move(cache));
  return out;
}

}  // namespace ptecps::service
