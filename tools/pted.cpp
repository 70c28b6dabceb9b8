// `pted` — the verification service as a long-running daemon: a bounded
// worker pool over the job API behind one TCP port speaking both the
// framed "PTEJ" protocol and an HTTP/1.1 shim (service/server.hpp).
//
//   pted --port 7411 --workers 4 --cache-dir /var/cache/pte
//
// Operations surface:
//   GET /healthz    "ok" while serving, 503 "draining" during shutdown
//   GET /metrics    jobs/s, p50/p95 latency, queue depth, cache hit rate
//   SIGTERM/SIGINT  graceful drain: stop accepting, reject queued-out
//                   jobs, finish everything in flight, exit 0
//
// --port 0 binds an ephemeral port; --port-file FILE writes the bound
// port (atomically, as one "PORT\n" line) so a harness can start pted,
// poll for the file, and connect — the bench and the CI smoke both do.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <unistd.h>

#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/text.hpp"

using namespace ptecps;

namespace {

constexpr const char* kUsage =
    "usage: pted [options]\n"
    "\n"
    "  --host H             bind address (default 127.0.0.1)\n"
    "  --port P             TCP port; 0 binds an ephemeral port (default 0)\n"
    "  --port-file FILE     write the bound port to FILE once listening\n"
    "  --workers N          job worker threads (default: hardware concurrency)\n"
    "  --queue-depth N      admission queue capacity (default 64); jobs\n"
    "                       beyond it are rejected, not queued\n"
    "  --max-connections N  concurrent connections (default 256)\n"
    "  --max-states-cap N   cap any job's verify state budget (default: none)\n"
    "  --cache-dir DIR      shared result cache (or PTE_CACHE_DIR)\n"
    "  --no-cache           ignore PTE_CACHE_DIR, run cache-less\n"
    "  --cache-max-bytes N  cache size cap, enforced at every store\n"
    "\n"
    "SIGTERM or SIGINT drains gracefully and exits 0.\n";

// Self-pipe for the signal handler: the only async-signal-safe way to
// get from SIGTERM to a clean drain on the main thread.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_terminate(int) {
  const char byte = 't';
  // Best-effort; a full pipe already means a wakeup is pending.
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

bool write_port_file(const std::string& path, int port) {
  const std::string tmp = util::cat(path, ".tmp");
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << port << "\n";
    if (!out.flush()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv,
                             {"host", "port", "port-file", "workers", "queue-depth",
                              "max-connections", "max-states-cap", "cache-dir",
                              "no-cache", "cache-max-bytes", "help"});
  if (args.has_flag("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (!args.positional().empty()) {
    std::fprintf(stderr, "error: pted takes no positional arguments\n\n%s", kUsage);
    return 2;
  }

  service::ServerOptions options;
  options.host = args.get_string("host", options.host);
  options.port = args.get_int("port", options.port);
  options.workers = args.get_u64("workers", options.workers);
  options.queue_depth = args.get_u64("queue-depth", options.queue_depth);
  options.max_connections = args.get_u64("max-connections", options.max_connections);
  options.max_states_cap = args.get_u64("max-states-cap", options.max_states_cap);
  if (!args.has_flag("no-cache")) {
    std::string dir = args.get_string("cache-dir", "");
    if (dir.empty()) {
      if (const char* env = std::getenv("PTE_CACHE_DIR")) dir = env;
    }
    options.service.cache_dir = std::move(dir);
    options.service.cache_max_bytes =
        args.get_u64("cache-max-bytes", options.service.cache_max_bytes);
  }
  const bool cached = !options.service.cache_dir.empty();

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "error: pipe(): %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa = {};
  sa.sa_handler = on_terminate;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  try {
    service::Server server(options);
    server.start();
    std::fprintf(stderr, "pted: listening on %s:%d (%s workers, queue %zu%s)\n",
                 options.host.c_str(), server.port(),
                 options.workers == 0 ? "auto" : util::cat(options.workers).c_str(),
                 options.queue_depth,
                 cached ? util::cat(", cache ", options.service.cache_dir).c_str() : "");
    const std::string port_file = args.get_string("port-file", "");
    if (!port_file.empty() && !write_port_file(port_file, server.port())) {
      std::fprintf(stderr, "error: cannot write port file '%s'\n", port_file.c_str());
      return 1;
    }

    // Block until SIGTERM/SIGINT (EINTR from the signal itself retries).
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::fprintf(stderr, "pted: draining (finishing in-flight jobs)\n");
    server.drain();
    std::fputs(server.metrics_json().dump(2).c_str(), stderr);
    std::fputc('\n', stderr);
    std::fprintf(stderr, "pted: drained cleanly\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
