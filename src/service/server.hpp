// `pted`'s engine room: a TCP server running a bounded worker pool over
// the job API (api::Service), with admission control, priorities, a
// process-wide shared result cache, and graceful drain.
//
// One port speaks both wire formats — the first four bytes of a
// connection select them.  "PTEJ" opens the framed protocol
// (util/sockio.hpp): each request frame is JSON, either a bare api::Job
// or an envelope {"job": {...}, "priority": 0|1|2, "id": "..."}; each
// response frame is {"ok", "id"?, "rejected"?, "error"?, "result"?}.
// Anything else is treated as HTTP/1.1: POST /run takes the same JSON
// body, GET /healthz and GET /metrics serve operations.
//
// Threading model: one acceptor, one thread per connection handling one
// request at a time (concurrency = open connections, which the bench
// drives), and a fixed pool of `workers` threads executing jobs from the
// shared AdmissionQueue — so the queue, not the connection count, bounds
// the work in flight, and a burst beyond `queue_depth` gets explicit
// rejects instead of latency collapse.
//
// Drain (SIGTERM in `pted`, drain() here): stop accepting, reject every
// job not yet admitted, finish and answer everything in flight, then
// return from wait().  The cache needs no final pass: each store evicts
// down to the size cap before it returns.  Responses are never
// truncated: a connection's read side is shut first, its write side only
// closes after the last owed response is on the wire.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "api/service.hpp"
#include "service/metrics.hpp"
#include "util/json.hpp"

namespace ptecps::service {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; port() tells what was bound.
  int port = 0;
  /// Job-executing worker threads (0 = hardware concurrency).
  std::size_t workers = 0;
  /// Admission queue capacity; pushes beyond it are rejected.
  std::size_t queue_depth = 64;
  /// Concurrent connections; accepts beyond it are closed immediately.
  std::size_t max_connections = 256;
  /// Server-side verify budget cap: jobs whose tuning pins no state
  /// budget (or pins one above the cap) run with max_states = cap, so a
  /// single huge proof cannot hold a worker forever.  0 = no cap.
  std::uint64_t max_states_cap = 0;
  /// Cache configuration (api::ServiceOptions::cache_dir enables it).
  api::ServiceOptions service;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  /// Bind + listen + spawn the acceptor and workers.  Throws
  /// util::SockError / std::runtime_error on failure.
  void start();
  /// The bound port (valid after start()).
  int port() const;

  /// Initiate graceful drain; idempotent, callable from any thread.
  void drain();
  /// Block until a drain (triggered here or elsewhere) has fully
  /// completed and every thread is joined.
  void wait();
  bool draining() const;

  /// The /metrics document, as served.
  util::Json metrics_json() const;
  const ServiceMetrics& metrics() const;
  const api::Service& service() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ptecps::service
