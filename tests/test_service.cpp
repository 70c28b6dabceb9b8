// The daemon layer: admission-queue semantics (priority order, explicit
// rejection, drain/stop lifecycle), the framed wire format, and a real
// Server end to end on an ephemeral port — framed submissions of every
// registry entry match an in-process Service::run on every deterministic
// field, the HTTP shim serves /healthz, /metrics and /run, and drain
// rejects new work while still answering what was admitted.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "scenarios/registry.hpp"
#include "service/queue.hpp"
#include "service/server.hpp"
#include "util/json.hpp"
#include "util/sockio.hpp"

namespace ptecps {
namespace {

using util::Json;

service::QueuedJob make_job(int priority, const std::string& id) {
  service::QueuedJob q;
  q.job = api::Job::for_scenario("laser-tracheotomy");
  q.priority = priority;
  q.id = id;
  return q;
}

// ---------------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------------

TEST(AdmissionQueue, HighestPriorityFirstFifoWithin) {
  service::AdmissionQueue queue(8);
  EXPECT_EQ(queue.push(make_job(service::kPriorityLow, "low-1")),
            service::AdmitStatus::kAdmitted);
  EXPECT_EQ(queue.push(make_job(service::kPriorityNormal, "norm-1")),
            service::AdmitStatus::kAdmitted);
  EXPECT_EQ(queue.push(make_job(service::kPriorityHigh, "high-1")),
            service::AdmitStatus::kAdmitted);
  EXPECT_EQ(queue.push(make_job(service::kPriorityHigh, "high-2")),
            service::AdmitStatus::kAdmitted);
  EXPECT_EQ(queue.push(make_job(service::kPriorityNormal, "norm-2")),
            service::AdmitStatus::kAdmitted);
  EXPECT_EQ(queue.depth(), 5u);

  std::vector<std::string> order;
  for (int i = 0; i < 5; ++i) order.push_back(queue.pop()->id);
  EXPECT_EQ(order, (std::vector<std::string>{"high-1", "high-2", "norm-1", "norm-2",
                                             "low-1"}));
}

TEST(AdmissionQueue, FullQueueRejectsInsteadOfBlocking) {
  service::AdmissionQueue queue(2);
  EXPECT_EQ(queue.push(make_job(1, "a")), service::AdmitStatus::kAdmitted);
  EXPECT_EQ(queue.push(make_job(1, "b")), service::AdmitStatus::kAdmitted);
  // The third answer is immediate and explicit — never a blocked client.
  EXPECT_EQ(queue.push(make_job(2, "c")), service::AdmitStatus::kQueueFull);
  queue.pop();
  EXPECT_EQ(queue.push(make_job(1, "d")), service::AdmitStatus::kAdmitted);
}

TEST(AdmissionQueue, DrainRejectsNewButDeliversAdmitted) {
  service::AdmissionQueue queue(4);
  queue.push(make_job(1, "before"));
  queue.drain();
  EXPECT_EQ(queue.push(make_job(1, "after")), service::AdmitStatus::kDraining);
  ASSERT_TRUE(queue.pop().has_value());  // the admitted job still comes out
  queue.stop();
  EXPECT_FALSE(queue.pop().has_value());  // worker exit signal
}

TEST(AdmissionQueue, StopWakesBlockedPoppers) {
  service::AdmissionQueue queue(4);
  std::optional<service::QueuedJob> got;
  std::thread popper([&] { got = queue.pop(); });
  queue.stop();
  popper.join();
  EXPECT_FALSE(got.has_value());
}

// ---------------------------------------------------------------------------
// Framed wire format
// ---------------------------------------------------------------------------

TEST(Frames, RoundTripOverALoopbackSocket) {
  util::Socket listener = util::tcp_listen("127.0.0.1", 0);
  const int port = util::bound_port(listener);
  std::thread echo([&] {
    util::Socket conn(::accept(listener.fd(), nullptr, nullptr));
    char magic[4];
    conn.read_exact(magic, 4);
    while (std::optional<std::string> frame = util::read_frame(conn))
      util::write_frame(conn, *frame);
  });
  util::Socket client = util::tcp_connect("127.0.0.1", port);
  util::write_frame_magic(client);
  util::write_frame(client, "{\"hello\":1}");
  EXPECT_EQ(util::read_frame(client).value(), "{\"hello\":1}");
  util::write_frame(client, "");  // zero-length payloads are legal
  EXPECT_EQ(util::read_frame(client).value(), "");
  client.close();
  echo.join();
}

TEST(Frames, OversizedLengthIsAProtocolErrorNotAnAllocation) {
  util::Socket listener = util::tcp_listen("127.0.0.1", 0);
  const int port = util::bound_port(listener);
  std::thread peer([&] {
    util::Socket conn(::accept(listener.fd(), nullptr, nullptr));
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};  // ~4GB length
    conn.write_all(huge, 4);
  });
  util::Socket client = util::tcp_connect("127.0.0.1", port);
  EXPECT_THROW(util::read_frame(client), util::SockError);
  peer.join();
}

// ---------------------------------------------------------------------------
// Server end to end (ephemeral port, real sockets)
// ---------------------------------------------------------------------------

Json framed_request(int port, const Json& request) {
  util::Socket sock = util::tcp_connect("127.0.0.1", port);
  util::write_frame_magic(sock);
  util::write_frame(sock, request.dump_canonical());
  const std::optional<std::string> reply = util::read_frame(sock);
  EXPECT_TRUE(reply.has_value());
  return Json::parse(reply.value_or("{}"));
}

Json smoke_job_json(const std::string& name) {
  Json job = Json::object();
  job.set("scenario", name);
  job.set("mode", "verify");
  job.set("smoke", true);
  return job;
}

// Every registry entry: the daemon's answer equals an in-process run on
// every deterministic field — verdict, proof counts and the
// counterexample's canonical bytes.
TEST(Server, FramedJobMatchesInProcessExecution) {
  service::ServerOptions options;
  options.workers = 2;
  service::Server server(options);
  server.start();

  for (const scenarios::RegistryEntry& entry : scenarios::registry()) {
    SCOPED_TRACE(entry.name);
    Json envelope = Json::object();
    envelope.set("job", smoke_job_json(entry.name));
    envelope.set("id", "req-" + entry.name);
    const Json resp = framed_request(server.port(), envelope);
    ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump(2);
    EXPECT_EQ(resp.at("id").as_string(), "req-" + entry.name);
    const api::JobResult remote = api::JobResult::from_json(resp.at("result"));

    api::Job job = api::Job::from_json(smoke_job_json(entry.name));
    job.tuning.threads = 1;  // the daemon's per-job default
    const api::JobResult local = api::Service().run(job);

    EXPECT_EQ(remote.verdict, local.verdict);
    EXPECT_EQ(remote.ok, local.ok);
    ASSERT_TRUE(remote.report.has_value());
    ASSERT_TRUE(local.report.has_value());
    const auto& rv = remote.report->scenarios[0].verification;
    const auto& lv = local.report->scenarios[0].verification;
    ASSERT_TRUE(rv.has_value());
    ASSERT_TRUE(lv.has_value());
    EXPECT_EQ(rv->status, lv->status);
    EXPECT_EQ(rv->states_explored, lv->states_explored);
    EXPECT_EQ(rv->states_stored, lv->states_stored);
    EXPECT_EQ(rv->transitions, lv->transitions);
    ASSERT_EQ(rv->counterexample.has_value(), lv->counterexample.has_value());
    if (rv->counterexample.has_value()) {
      EXPECT_EQ(rv->counterexample->to_json().dump_canonical(),
                lv->counterexample->to_json().dump_canonical());
    }
  }

  server.drain();
}

TEST(Server, BareJobAndInvalidPayloadsOverFraming) {
  service::ServerOptions options;
  options.workers = 1;
  service::Server server(options);
  server.start();

  // A bare Job (no envelope) is accepted.
  const Json ok = framed_request(server.port(), smoke_job_json("laser-tracheotomy"));
  EXPECT_TRUE(ok.at("ok").as_bool()) << ok.dump(2);

  // Garbage JSON shape comes back as an error response, not a hangup.
  Json bad = Json::object();
  bad.set("job", Json::object());
  const Json err = framed_request(server.port(), bad);
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_NE(err.find("error"), nullptr);

  // Out-of-range priority is a request error, not a clamp.
  Json envelope = Json::object();
  envelope.set("job", smoke_job_json("laser-tracheotomy"));
  envelope.set("priority", 9);
  const Json rejected = framed_request(server.port(), envelope);
  EXPECT_FALSE(rejected.at("ok").as_bool());

  server.drain();
  EXPECT_GE(server.metrics_json().at("jobs").at("protocol_errors").as_uint(), 1u);
}

TEST(Server, HttpShimServesHealthMetricsAndRun) {
  service::ServerOptions options;
  options.workers = 1;
  service::Server server(options);
  server.start();

  {
    util::Socket sock = util::tcp_connect("127.0.0.1", server.port());
    const std::string req = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    sock.write_all(req.data(), req.size());
    std::string response;
    char buf[512];
    for (std::size_t n; (n = sock.read_some(buf, sizeof buf)) > 0;)
      response.append(buf, n);
    EXPECT_NE(response.find("200"), std::string::npos);
    EXPECT_NE(response.find("ok"), std::string::npos);
  }
  {
    util::Socket sock = util::tcp_connect("127.0.0.1", server.port());
    const std::string body = smoke_job_json("laser-tracheotomy").dump_canonical();
    std::string req = "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: ";
    req += std::to_string(body.size()) + "\r\n\r\n" + body;
    sock.write_all(req.data(), req.size());
    std::string response;
    char buf[4096];
    for (std::size_t n; (n = sock.read_some(buf, sizeof buf)) > 0;)
      response.append(buf, n);
    const std::size_t json_at = response.find("\r\n\r\n");
    ASSERT_NE(json_at, std::string::npos);
    const Json resp = Json::parse(response.substr(json_at + 4));
    EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump(2);
  }

  const Json metrics = server.metrics_json();
  EXPECT_GE(metrics.at("jobs").at("completed").as_uint(), 1u);
  EXPECT_GE(metrics.at("connections").at("http_requests").as_uint(), 2u);

  server.drain();
}

TEST(Server, DrainRejectsNewJobsAndHealthzFlips) {
  service::ServerOptions options;
  options.workers = 1;
  service::Server server(options);
  server.start();
  const int port = server.port();

  // One job completes while serving...
  EXPECT_TRUE(framed_request(port, smoke_job_json("laser-tracheotomy")).at("ok").as_bool());
  server.drain();
  // ...after drain the listener is gone entirely.
  EXPECT_THROW(util::tcp_connect("127.0.0.1", port), util::SockError);
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.metrics_json().at("draining").as_bool(), true);
}

}  // namespace
}  // namespace ptecps
