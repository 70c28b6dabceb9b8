#include "service/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <chrono>
#include <cstring>
#include <list>
#include <mutex>
#include <thread>
#include <vector>

#include "service/queue.hpp"
#include "util/gang.hpp"
#include "util/sockio.hpp"
#include "util/text.hpp"

namespace ptecps::service {

using util::Json;
using util::Socket;

namespace {

using steady_clock = std::chrono::steady_clock;

double ms_since(steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(steady_clock::now() - t0).count();
}

/// Prover and sampler threads per job when the job pins none.  The pool
/// already parallelizes across jobs, so `workers` x hardware concurrency
/// would oversubscribe the host.
constexpr std::size_t kJobThreads = 1;

/// What one request handling produced; the two transports render it
/// differently (frame payload vs HTTP status + body).
struct Response {
  enum class Kind { kOk, kRejected, kBadRequest };
  Kind kind = Kind::kOk;
  Json body = Json::object();
};

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        svc(options.service),
        queue(options.queue_depth),
        worker_count(util::resolve_threads(options.workers)) {}

  ServerOptions options;
  api::Service svc;
  AdmissionQueue queue;
  ServiceMetrics metrics;
  std::size_t worker_count;

  Socket listener;
  int listen_port = -1;
  int wake_pipe[2] = {-1, -1};

  std::thread acceptor;
  std::vector<std::thread> workers;

  /// Connections are list nodes so references stay stable; a finished
  /// handler marks `done` and the acceptor reaps it on the next accept.
  struct Conn {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex conn_mu;
  std::list<Conn> conns;

  std::atomic<bool> draining{false};

  std::once_flag drain_once;

  ~Impl() {
    for (int fd : wake_pipe)
      if (fd >= 0) ::close(fd);
  }

  // --- policy --------------------------------------------------------------

  /// Server-side defaults and caps applied to every admitted job: the
  /// state-budget ceiling, and kJobThreads unless the job pins its own.
  void apply_job_policy(api::Job& job) const {
    if (options.max_states_cap > 0 && (job.tuning.max_states == 0 ||
                                       job.tuning.max_states > options.max_states_cap))
      job.tuning.max_states = options.max_states_cap;
    if (job.tuning.threads == 0) job.tuning.threads = kJobThreads;
    if (job.threads == 0) job.threads = kJobThreads;
  }

  // --- request handling (transport-independent) ----------------------------

  Response handle_request(const std::string& payload) {
    Response resp;
    std::string id;
    try {
      const Json req = Json::parse(payload);
      const Json* job_json = &req;
      int priority = kPriorityNormal;
      if (const Json* inner = req.find("job")) {
        // Envelope form: {"job": {...}, "priority"?: 0|1|2, "id"?: "..."}.
        job_json = inner;
        if (const Json* p = req.find("priority")) {
          const std::int64_t level = p->as_int();
          if (level < 0 || level >= kPriorityLevels)
            throw util::JsonError(util::cat("request: priority ", level,
                                            " out of range [0, ", kPriorityLevels - 1,
                                            "]"));
          priority = static_cast<int>(level);
        }
        if (const Json* i = req.find("id")) id = i->as_string();
      }
      api::Job job = api::Job::from_json(*job_json);
      apply_job_policy(job);

      QueuedJob queued;
      queued.job = std::move(job);
      queued.priority = priority;
      queued.id = id;
      queued.enqueued_at = steady_clock::now();
      std::future<api::JobResult> future = queued.promise.get_future();
      switch (queue.push(std::move(queued))) {
        case AdmitStatus::kAdmitted: {
          metrics.record_admitted();
          api::JobResult result = future.get();
          resp.kind = Response::Kind::kOk;
          resp.body.set("ok", result.ok);
          if (!id.empty()) resp.body.set("id", id);
          resp.body.set("result", result.to_json());
          return resp;
        }
        case AdmitStatus::kQueueFull:
          metrics.record_rejected_full();
          resp.kind = Response::Kind::kRejected;
          resp.body.set("ok", false);
          if (!id.empty()) resp.body.set("id", id);
          resp.body.set("rejected", true);
          resp.body.set("error", util::cat("queue full (capacity ", queue.capacity(),
                                           "); retry later"));
          return resp;
        case AdmitStatus::kDraining:
          metrics.record_rejected_draining();
          resp.kind = Response::Kind::kRejected;
          resp.body.set("ok", false);
          if (!id.empty()) resp.body.set("id", id);
          resp.body.set("rejected", true);
          resp.body.set("error", "draining: the server is shutting down");
          return resp;
      }
      return resp;  // unreachable
    } catch (const std::exception& e) {
      metrics.record_protocol_error();
      resp.kind = Response::Kind::kBadRequest;
      resp.body = Json::object();
      resp.body.set("ok", false);
      if (!id.empty()) resp.body.set("id", id);
      resp.body.set("error", e.what());
      return resp;
    }
  }

  Json metrics_doc() const {
    Json cache_stats;
    const Json* stats_ptr = nullptr;
    if (svc.cache() != nullptr) {
      cache_stats = svc.cache()->stats().to_json();
      stats_ptr = &cache_stats;
    }
    return metrics.to_json(queue.depth(), queue.capacity(), worker_count,
                           draining.load(), stats_ptr);
  }

  // --- transports ----------------------------------------------------------

  void serve_framed(Socket& sock) {
    while (true) {
      const std::optional<std::string> payload = util::read_frame(sock);
      if (!payload.has_value()) return;  // clean hang-up
      const Response resp = handle_request(*payload);
      util::write_frame(sock, resp.body.dump_canonical());
    }
  }

  void serve_http(Socket& sock, std::string prefix) {
    const std::optional<util::HttpRequest> req =
        util::read_http_request(sock, std::move(prefix));
    if (!req.has_value()) return;
    metrics.record_http_request();
    if (req->method == "GET" && req->target == "/healthz") {
      if (draining.load())
        util::write_http_response(sock, 503, "Service Unavailable", "text/plain",
                                  "draining\n");
      else
        util::write_http_response(sock, 200, "OK", "text/plain", "ok\n");
      return;
    }
    if (req->method == "GET" && req->target == "/metrics") {
      util::write_http_response(sock, 200, "OK", "application/json",
                                metrics_doc().dump(2) + "\n");
      return;
    }
    if (req->method == "POST" && req->target == "/run") {
      const Response resp = handle_request(req->body);
      const std::string body = resp.body.dump(2) + "\n";
      switch (resp.kind) {
        case Response::Kind::kOk:
          util::write_http_response(sock, 200, "OK", "application/json", body);
          return;
        case Response::Kind::kRejected:
          util::write_http_response(sock, 503, "Service Unavailable",
                                    "application/json", body);
          return;
        case Response::Kind::kBadRequest:
          util::write_http_response(sock, 400, "Bad Request", "application/json", body);
          return;
      }
      return;
    }
    util::write_http_response(sock, 404, "Not Found", "text/plain",
                              "unknown endpoint (try /healthz, /metrics, POST /run)\n");
  }

  void serve_connection(Conn& conn) {
    try {
      // Protocol sniff: the framed protocol opens with "PTEJ", anything
      // else is handed to the HTTP parser with the bytes replayed.
      char magic[4];
      std::size_t got = 0;
      while (got < sizeof magic) {
        const std::size_t n = conn.sock.read_some(magic + got, sizeof magic - got);
        if (n == 0) break;
        got += n;
      }
      if (got == sizeof magic &&
          std::memcmp(magic, util::kFrameMagic, sizeof magic) == 0) {
        serve_framed(conn.sock);
      } else if (got > 0) {
        serve_http(conn.sock, std::string(magic, got));
      }
    } catch (const std::exception&) {
      // Torn frame, malformed HTTP, or a peer that vanished mid-write:
      // the connection dies, the server does not.
      metrics.record_protocol_error();
    }
    // Half-close the write side now, not at reap time: an HTTP client
    // reading to EOF (the Connection: close contract) must see it as
    // soon as we are done.  The fd itself stays owned until reap, so
    // drain's concurrent shutdown_read never races a close/fd-reuse.
    conn.sock.shutdown_write();
    conn.done.store(true);
  }

  // --- threads -------------------------------------------------------------

  void worker_loop() {
    while (std::optional<QueuedJob> queued = queue.pop()) {
      api::JobResult result = svc.run(queued->job);
      metrics.record_completed(ms_since(queued->enqueued_at), result);
      queued->promise.set_value(std::move(result));
    }
  }

  void accept_loop() {
    while (!draining.load()) {
      pollfd fds[2] = {{listener.fd(), POLLIN, 0}, {wake_pipe[0], POLLIN, 0}};
      if (::poll(fds, 2, -1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if ((fds[1].revents & POLLIN) != 0 || draining.load()) break;
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int fd = ::accept(listener.fd(), nullptr, nullptr);
      if (fd < 0) continue;
      // A wedged client must not wedge drain: bounded send, then error.
      timeval send_timeout{60, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof send_timeout);
      // Request/response over small frames: Nagle + delayed ACK would
      // pin every cache-hit response at ~40 ms.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

      std::lock_guard<std::mutex> lock(conn_mu);
      // Reap finished connections (join is immediate once done is set).
      for (auto it = conns.begin(); it != conns.end();) {
        if (it->done.load() && it->thread.joinable()) {
          it->thread.join();
          it = conns.erase(it);
        } else {
          ++it;
        }
      }
      if (conns.size() >= options.max_connections) {
        ::close(fd);  // explicit overload shed, not a hang
        continue;
      }
      metrics.record_connection();
      conns.emplace_back();
      Conn& conn = conns.back();
      conn.sock = Socket(fd);
      conn.thread = std::thread([this, &conn] { serve_connection(conn); });
    }
    listener.close();
  }

  void do_start() {
    listener = util::tcp_listen(options.host, options.port);
    listen_port = util::bound_port(listener);
    if (::pipe(wake_pipe) != 0)
      throw std::runtime_error(util::cat("server: pipe(): ", std::strerror(errno)));
    workers.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i)
      workers.emplace_back([this] { worker_loop(); });
    acceptor = std::thread([this] { accept_loop(); });
  }

  /// The drain sequence; runs exactly once (drain()/wait() both funnel
  /// here through the once_flag).
  void do_drain() {
    draining.store(true);
    queue.drain();  // every not-yet-admitted job now gets an explicit reject
    if (wake_pipe[1] >= 0) {
      const char byte = 'x';
      [[maybe_unused]] const ssize_t n = ::write(wake_pipe[1], &byte, 1);
    }
    if (acceptor.joinable()) acceptor.join();
    // The connection list is stable now (only the acceptor mutated it).
    // Shut read sides: idle readers see EOF; a handler waiting on a job
    // result still writes its full response before exiting.
    {
      std::lock_guard<std::mutex> lock(conn_mu);
      for (Conn& conn : conns) conn.sock.shutdown_read();
    }
    for (Conn& conn : conns)
      if (conn.thread.joinable()) conn.thread.join();
    conns.clear();
    // Every owed response is on the wire; stop the pool.  The cache
    // needs no final gc: each store evicts down to the cap.
    queue.stop();
    for (std::thread& worker : workers) worker.join();
  }
};

Server::Server(ServerOptions options) : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() {
  if (impl_ != nullptr && impl_->listen_port >= 0) drain();
}

void Server::start() { impl_->do_start(); }

int Server::port() const { return impl_->listen_port; }

void Server::drain() {
  std::call_once(impl_->drain_once, [this] { impl_->do_drain(); });
}

void Server::wait() { drain(); }

bool Server::draining() const { return impl_->draining.load(); }

Json Server::metrics_json() const { return impl_->metrics_doc(); }

const ServiceMetrics& Server::metrics() const { return impl_->metrics; }

const api::Service& Server::service() const { return impl_->svc; }

}  // namespace ptecps::service
